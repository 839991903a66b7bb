"""repro: a reproduction of "Automated Bug Removal for Software-Defined
Networks" (Wu, Chen, Haeberlen, Zhou, Loo -- NSDI 2017).

The package provides, from the bottom up:

* :mod:`repro.ndlog` -- an NDlog/uDlog engine (the declarative controller
  substrate).
* :mod:`repro.meta` -- meta provenance: provenance over programs as well as
  data and the cost-ordered exploration of repairs.  (The classical
  positive/negative provenance of Section 3.1, the Figure 4 meta model and
  the scan-based reference engine are test references, kept under
  ``tests/``.)
* :mod:`repro.repair` -- repair candidates and their application.
* :mod:`repro.backtest` -- replay-based backtesting with KS acceptance.
* :mod:`repro.sdn` -- a simulated SDN (switches, flow tables, topologies,
  traffic, historical logs): the Mininet substitute.
* :mod:`repro.controllers` -- the NDlog controller front end.
* :mod:`repro.scenarios` -- the five case studies Q1-Q5 of the evaluation,
  and (:mod:`repro.scenarios.other_languages`) Q1 in an imperative
  ("RubyFlow"/Trema) and a policy (Pyretic) language with their interpreters
  and repair searches, for Table 3.
* :mod:`repro.distrib` -- the distributed backtest fabric (work-queue
  scheduling over in-process, spawn and socket transports).
* :mod:`repro.api` -- the unified repair-pipeline API:
  :class:`~repro.api.RepairSession` (the paper's four steps, Diagnose →
  Generate → Backtest → Rank), the declarative
  :class:`~repro.api.RepairConfig`, and the streaming event bus of
  :mod:`repro.bus` (its events, :mod:`repro.events`, load with the first
  one a listening bus is handed).

Quickstart::

    from repro.api import RepairConfig, RepairSession

    config = RepairConfig.for_scenario("Q1", max_candidates=14)
    report = RepairSession(config).run()
    print(report.summary())

Or from a shell: ``python -m repro repair q1`` (see ``python -m repro
--help``).

The runtime is stdlib-only.  ``import repro`` loads the API and what a
serial repair runs; :mod:`repro.distrib`, :mod:`repro.service`,
:mod:`repro.obs`, the lint passes of :mod:`repro.analysis` and each of
the Q1-Q5 case studies are imported by the first name that needs them
(:mod:`repro._lazy`), the CLI's other subcommands (:mod:`repro.cli_tools`)
when one is run, and the Table 3 front ends only by importing
:mod:`repro.scenarios.other_languages`.
"""

from time import perf_counter as _perf_counter

#: When this package began to import: ``repro repair --json`` reports the
#: seconds from here to :func:`repro.cli.main` as ``timings.import_s``.
IMPORT_STARTED = _perf_counter()

from ._lazy import lazy_exports
from .api import (DiagnosisReport, EventBus, PhaseTimings, RepairConfig,
                  RepairSession)

__getattr__, __dir__ = lazy_exports(__name__, {"events": ("SessionEvent",)})

__version__ = "2.0.0"

__all__ = ["DiagnosisReport", "EventBus", "PhaseTimings", "RepairConfig",
           "RepairSession", "SessionEvent", "__version__"]
