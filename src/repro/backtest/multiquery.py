"""Multi-query backtesting (Section 4.4).

Backtesting one repair candidate means re-running the controller program over
the entire historical trace.  Because the candidates differ only in the small
edits they apply, almost all controller computation is shared between them.
The paper exploits this with a classic multi-query optimisation: tuples carry
*tags* naming the candidates they belong to, so the shared part of the
computation runs once and only the forked sub-flows run per candidate.

This module implements the same optimisation operationally:

* the *base* (unrepaired) controller response for each distinct packet is
  computed once and cached;
* for every candidate, the packets that could possibly be affected are
  identified by evaluating only the candidate's *modified rules* (old and new
  version) against the packet — a tiny fraction of the full program;
* only for affected packets is the candidate's full controller invoked, and
  the resulting flow entries are installed with the candidate's tag so a
  single simulated network can hold all candidates' flow tables side by side
  (tag-filtered lookups, see :meth:`repro.sdn.switch.FlowTable.lookup`).

The result is identical to sequential backtesting — the comparison of
Figure 9b — and it is an optimisation *of* that procedure, not a second
one: this module is the sharing strategy that
:class:`~repro.backtest.replay.Backtester` consults when constructed with
``multiquery=True``.  :meth:`SharedTrunk.build` replays the base program
once; :meth:`SharedTrunk.replayer` wraps one candidate's controller and
topology in a :class:`SharedReplay`, which the backtester's one replay loop
drives through the same ``run_trace``/``stats`` surface as a plain
:class:`~repro.sdn.network.NetworkSimulator`.  Candidate set-up, the abort
checks, telemetry and the verdict all stay in ``Backtester``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ndlog.ast import Program, Rule
from ..ndlog.engine import Engine
from ..ndlog.tuples import NDTuple
from ..repair.candidates import RepairCandidate
from ..sdn.network import DROPPED, NetworkSimulator
from ..sdn.packets import Packet


def modified_rule_names(program: Program, candidate: RepairCandidate) -> Set[str]:
    """Names of rules touched by a candidate (added rules included)."""
    names: Set[str] = set()
    for edit in candidate.edits:
        rule_name = getattr(edit, "rule", None)
        if isinstance(rule_name, str):
            names.add(rule_name)
        source = getattr(edit, "source_rule", None)
        if isinstance(source, str):
            names.add(source)
        new_rule = getattr(edit, "new_rule", None)
        if new_rule is not None:
            names.add(new_rule.name)
    return names


class _RuleDeltaChecker:
    """Decides, per packet, whether a candidate could change the response.

    Evaluates only the candidate's modified rules — in both their original
    and repaired form — against the single ``PacketIn`` tuple plus the static
    configuration tuples.  If old and new versions derive exactly the same
    heads, the candidate's response for this packet equals the base response
    and the full candidate program need not run.
    """

    def __init__(self, scenario, original: Program, candidate: RepairCandidate,
                 repaired: Program):
        self.scenario = scenario
        names = modified_rule_names(original, candidate)
        old_rules = [r for r in original.rules if r.name in names]
        new_rules = [r for r in repaired.rules if r.name in names]
        self.data_change = candidate.is_data_change()
        self._old_engine = self._build_engine(old_rules)
        self._new_engine = self._build_engine(new_rules)
        self._cache: Dict[Tuple, bool] = {}

    def _build_engine(self, rules: Sequence[Rule]) -> Optional[Engine]:
        if not rules:
            return None
        engine = Engine(Program(rules=rules, name="delta"))
        for schema in self.scenario.schemas():
            engine.register_schema(schema)
        engine.insert_many(list(self.scenario.static_tuples))
        return engine

    def affects(self, packet_tuple: NDTuple) -> bool:
        if self.data_change:
            return True
        key = packet_tuple.values
        if key in self._cache:
            return self._cache[key]
        old_heads = self._heads(self._old_engine, packet_tuple)
        new_heads = self._heads(self._new_engine, packet_tuple)
        affected = old_heads != new_heads
        self._cache[key] = affected
        return affected

    def affects_anywhere(self, packet, switch_ids: Sequence[int]) -> bool:
        """Could the candidate change this packet's fate at *any* switch?

        A packet raises PacketIns along its whole path, so the delta check
        must consider every switch the packet might traverse, not only its
        ingress switch.
        """
        if self.data_change:
            return True
        for switch_id in switch_ids:
            packet_tuple = self.scenario.packet_in_tuple(switch_id, packet)
            if self.affects(packet_tuple):
                return True
        return False

    def _heads(self, engine: Optional[Engine], packet_tuple: NDTuple) -> frozenset:
        if engine is None:
            return frozenset()
        derived = engine.insert(packet_tuple)
        # Keep the delta engine stateless across probes: consume whatever this
        # packet derived (the transient PacketIn removes itself).
        for tup in derived:
            engine.consume(tup)
        return frozenset(derived)


class _SharedResponseController:
    """Controller wrapper that forwards unaffected packets to a shared base.

    All candidates share one base controller and one response cache, so the
    unmodified part of the program is evaluated at most once per distinct
    packet across the whole candidate set — the operational equivalent of
    the paper's tagged backtesting program.
    """

    def __init__(self, scenario, base_controller, base_cache,
                 candidate_controller, checker):
        self.scenario = scenario
        self.base_controller = base_controller
        self.base_cache = base_cache
        self.candidate_controller = candidate_controller
        self.checker = checker

    def on_start(self, network):
        return self.candidate_controller.on_start(network)

    def handle_packet_in(self, event):
        # Sharing statistics are accounted once per packet×candidate in
        # SharedReplay.run_trace; counting again here (a packet can raise
        # several PacketIns along its path) double-counted decisions and
        # skewed BacktestReport.sharing_ratio().
        packet_tuple = self.scenario.packet_in_tuple(event.switch_id, event.packet,
                                                     in_port=event.in_port)
        if self.checker.affects(packet_tuple):
            return self.candidate_controller.handle_packet_in(event)
        key = (event.switch_id, packet_tuple.values)
        if key not in self.base_cache:
            self.base_cache[key] = self.base_controller.handle_packet_in(event)
        return self.base_cache[key]


class _CachePrimingController:
    """Wraps the trunk's base controller, recording its responses.

    Delegates every PacketIn to the real controller (the trunk replay stays
    exact) while remembering the first response per distinct key — the same
    entries the lazy shared cache would eventually hold, now computed once
    in trace order before any candidate runs.
    """

    def __init__(self, scenario, inner, cache: Dict[Tuple, List[object]]):
        self.scenario = scenario
        self.inner = inner
        self.cache = cache

    def on_start(self, network):
        return self.inner.on_start(network)

    def handle_packet_in(self, event):
        messages = self.inner.handle_packet_in(event)
        packet_tuple = self.scenario.packet_in_tuple(
            event.switch_id, event.packet, in_port=event.in_port)
        self.cache.setdefault((event.switch_id, packet_tuple.values), messages)
        return messages


class _LazyBaseController:
    """Builds a fresh base controller on first use (cache misses only).

    Keeping the fallback controller per candidate — instead of one shared
    mutable instance — makes candidate evaluations hermetic, which is what
    allows them to run in any order or in separate processes while staying
    bit-identical to the serial pass.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self._inner = None

    def handle_packet_in(self, event):
        if self._inner is None:
            self._inner = self.scenario.build_controller(program=None)
        return self._inner.handle_packet_in(event)


@dataclass
class SharedTrunk:
    """Per-candidate-independent state, computed once per backtester.

    The trunk is the operational analogue of the tagged backtesting
    program's shared sub-flows: the base network's delivery outcome and
    control-plane cost for every trace packet, plus the base controller's
    first response per distinct PacketIn key.  Candidate evaluations only
    read it (each takes its own copy of the response cache), so they stay
    hermetic: any order, any process, same result.
    """

    #: Per trace entry: the base run's destination for the packet.
    base_destinations: List[int]
    #: Per trace entry: (packet_in, flow_mod, packet_out) counts of the base
    #: run, credited to candidates that adopt the shared outcome so their
    #: control-plane statistics stay comparable with sequential backtests.
    base_deltas: List[Tuple[int, int, int]]
    base_cache: Dict[Tuple, List[object]]
    switch_ids: List[int]

    @classmethod
    def build(cls, scenario, trace: List[Tuple[int, Packet]]) -> "SharedTrunk":
        """Replay ``trace`` once under the unrepaired program."""
        base_cache: Dict[Tuple, List[object]] = {}
        topology = scenario.build_topology()
        priming = _CachePrimingController(
            scenario, scenario.build_controller(program=None), base_cache)
        simulator = NetworkSimulator(
            topology, priming,
            require_packet_out=scenario.require_packet_out,
            record_ingress=False)
        base_deltas: List[Tuple[int, int, int]] = []
        stats = simulator.stats
        for switch_id, packet in trace:
            before = (stats.packet_in_count, stats.flow_mod_count,
                      stats.packet_out_count)
            simulator.inject(packet, switch_id)
            base_deltas.append((stats.packet_in_count - before[0],
                                stats.flow_mod_count - before[1],
                                stats.packet_out_count - before[2]))
        return cls(base_destinations=stats.destinations,
                   base_deltas=base_deltas,
                   base_cache=base_cache,
                   switch_ids=sorted(topology.switches))

    def replayer(self, scenario, candidate: RepairCandidate,
                 repaired_program: Program, candidate_controller,
                 topology) -> "SharedReplay":
        """A replayer for one candidate over its controller and topology."""
        checker = _RuleDeltaChecker(scenario, scenario.program, candidate,
                                    repaired_program)
        shared = _SharedResponseController(
            scenario, _LazyBaseController(scenario), dict(self.base_cache),
            candidate_controller, checker)
        simulator = NetworkSimulator(
            topology, shared,
            require_packet_out=scenario.require_packet_out,
            record_ingress=False)
        return SharedReplay(self, checker, simulator)


class SharedReplay:
    """One candidate's replay against the trunk.

    Offers the ``run_trace`` / ``stats`` surface of
    :class:`~repro.sdn.network.NetworkSimulator`, so the backtester's
    replay loop drives either.  Chunks must arrive in trace order: the
    replayer keeps its own position to look up each packet's base outcome.
    Packets the candidate cannot affect adopt that outcome; the rest are
    injected into the candidate's own network.  ``batch_size`` is accepted
    and ignored — adoption is per packet, so bursts do not apply.
    """

    def __init__(self, trunk: SharedTrunk, checker: _RuleDeltaChecker,
                 simulator: NetworkSimulator):
        self.trunk = trunk
        self.checker = checker
        self.simulator = simulator
        self.stats = simulator.stats
        self.position = 0
        #: Each (packet, candidate) decision is counted exactly once.
        self.shared_evaluations = 0
        self.candidate_evaluations = 0

    def run_trace(self, chunk, batch_size: Optional[int] = None):
        trunk = self.trunk
        for index, (switch_id, packet) in enumerate(chunk, self.position):
            if self.checker.affects_anywhere(packet, trunk.switch_ids):
                self.candidate_evaluations += 1
                self.simulator.inject(packet, switch_id)
            else:
                self.shared_evaluations += 1
                self._adopt(trunk.base_destinations[index],
                            trunk.base_deltas[index])
        self.position += len(chunk)
        return self.stats

    def _adopt(self, destination: int,
               delta: Tuple[int, int, int]) -> None:
        """Credit a shared (base-network) packet outcome to the candidate.

        Like the adopted destination itself, the adopted control-plane
        delta reflects the *base* network's handling of the packet.  That is
        the sharing premise — an unaffected packet behaves identically under
        the candidate — and it is exact whenever flow-entry match columns
        equal the PacketIn tuple fields (identical flow keys then imply
        identical tuples, which the delta checker classifies identically).
        Mappings with narrower match columns can in principle attribute a
        shared miss to both the base delta and a later affected same-key
        packet; the Q1-Q5 verdict-parity tests bound this approximation.
        """
        stats = self.stats
        stats.total += 1
        stats.destinations.append(destination)
        if destination == DROPPED:
            stats.dropped += 1
        else:
            stats.delivered_per_host[destination] = \
                stats.delivered_per_host.get(destination, 0) + 1
        stats.packet_in_count += delta[0]
        stats.flow_mod_count += delta[1]
        stats.packet_out_count += delta[2]
