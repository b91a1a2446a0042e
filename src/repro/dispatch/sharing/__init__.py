"""Sharing dispatchers: STD-P, STD-T, RAII, SARP, ILP."""

from repro.dispatch.sharing.ilp import ILPDispatcher
from repro.dispatch.sharing.plan import InsertionQuote, TaxiPlan
from repro.dispatch.sharing.preferences import build_sharing_table
from repro.dispatch.sharing.raii import RAIIDispatcher
from repro.dispatch.sharing.sarp import SARPDispatcher
from repro.dispatch.sharing.std import STDDispatcher, pack_requests, std_p, std_t

__all__ = [
    "STDDispatcher",
    "std_p",
    "std_t",
    "pack_requests",
    "build_sharing_table",
    "RAIIDispatcher",
    "SARPDispatcher",
    "ILPDispatcher",
    "TaxiPlan",
    "InsertionQuote",
]
