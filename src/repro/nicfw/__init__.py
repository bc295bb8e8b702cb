"""NIC firmware substrates: the bounded translation table.

The MCP (Myrinet Control Program) request pipeline itself lives in
:mod:`repro.hw.nic`; this package holds the firmware data structure the
paper's registration story revolves around: the address-translation
table with a bounded number of entries (section 2.2.2: "the amount of
page translations that may be stored in the NIC is limited, useless
entries have to be deregistered").
"""

from .transtable import TranslationTable

__all__ = ["TranslationTable"]
