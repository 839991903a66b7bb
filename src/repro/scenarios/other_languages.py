"""Table 3: Q1 in the two controller languages besides NDlog (Section 5.8).

The paper re-creates its scenarios for Trema (Ruby) and Pyretic to show that
meta provenance is not tied to NDlog.  This module re-creates Q1 — the
copied branch whose switch id was never updated — in two small front ends,
each with its AST, interpreter and repair search:

* a NetCore-style policy language, the Pyretic substitute: ``Fwd``,
  ``Match(...)[policy]`` restriction and ``Parallel`` union;
* RubyFlow, the Trema substitute: a ``packet_in`` handler of nested ``If``
  statements over comparisons, with ``InstallFlow``
  (``send_flow_mod_add``) and ``SendPacketOut`` calls.

Every AST node is a frozen dataclass over tuples, so a program is a value,
as NDlog programs are: a repair rebuilds the spine from the root to the node
it edits (:func:`_replace_at`, :func:`_replace_statement`) and shares every
other node with the buggy program.  The languages hold only what the two
scenarios build.  The repair searches treat each match value, literal,
comparison operator, field reference and port as a meta tuple and propose
edits for a missing-delivery symptom.  As the paper notes for Pyretic, the
match syntax permits no operator changes, so the policy language generates
fewer candidates — the effect Table 3 shows.

:func:`language_reports` runs both scenarios; their generated / accepted
counts are the ``trema`` and ``pyretic`` rows of
``tests/scenarios/paper_tables.json``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..backtest.metrics import compare_traffic
from ..sdn.controller import Controller, FlowMod, PacketInEvent, PacketOut
from ..sdn.network import NetworkSimulator, TrafficStats
from ..sdn.packets import HTTP_PORT, Packet
from ..sdn.switch import DROP_PORT, FlowEntry
from .q1_copy_paste import WEB_VIP, H2, q1_topology, q1_trace

#: Priority of every flow entry either front end installs.
PRIORITY = 10
#: Most candidates one repair search returns.
MAX_CANDIDATES = 20
#: The clients Q1's load balancer sends to the backup server H2.
OFFLOADED_CLIENTS = (101, 102)


# ---------------------------------------------------------------------------
# What both languages share
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocatedPacket:
    """A packet at a switch (and ingress port), as both languages read it."""

    packet: Packet
    switch: int
    in_port: Optional[int] = None

    def field_value(self, name: str):
        if name == "switch":
            return self.switch
        if name == "in_port":
            return self.in_port
        return self.packet.header().get(name)


@dataclass(frozen=True)
class DeliveryGoal:
    """Symptom: a packet should be forwarded.

    ``packet`` is a representative packet of the affected traffic;
    ``switch`` is where it enters; ``expected_port`` (optional) is the port
    it should leave from.
    """

    packet: Packet
    switch: int
    expected_port: Optional[int] = None
    in_port: Optional[int] = None


@dataclass(frozen=True)
class LanguageRepair:
    """A repair candidate: the whole repaired policy or handler."""

    description: str
    cost: float
    program: object
    kind: str


def _ranked(candidates: Iterable[LanguageRepair]) -> List[LanguageRepair]:
    """The cheapest candidate per description, in cost order; equal costs
    keep the order the search proposed them in."""
    unique: Dict[str, LanguageRepair] = {}
    for candidate in candidates:
        kept = unique.get(candidate.description)
        if kept is None or candidate.cost < kept.cost:
            unique[candidate.description] = candidate
    return sorted(unique.values(), key=lambda c: c.cost)[:MAX_CANDIDATES]


# ---------------------------------------------------------------------------
# The policy language (Pyretic substitute)
# ---------------------------------------------------------------------------
#
# A policy maps a located packet to the ports it leaves by.  ``CHILDREN``
# names a node's sub-policy fields: a path into the tree is a tuple of them.


@dataclass(frozen=True)
class Fwd:
    """Forward out of a fixed port."""

    port: int

    CHILDREN = ()

    def evaluate(self, located: LocatedPacket) -> List[int]:
        return [self.port]

    def describe(self) -> str:
        return f"fwd({self.port})"


@dataclass(frozen=True, init=False)
class Match:
    """A conjunction of field equalities, kept sorted by field name.

    ``Match(...)[policy]`` builds the :class:`Restrict` that applies
    ``policy`` only to the packets the match holds for.
    """

    fields: Tuple[Tuple[str, object], ...]

    def __init__(self, **fields):
        object.__setattr__(self, "fields", tuple(sorted(fields.items())))

    def __getitem__(self, policy: Policy) -> Restrict:
        return Restrict(self, policy)

    def test(self, located: LocatedPacket) -> bool:
        return all(located.field_value(name) == value
                   for name, value in self.fields)

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.fields)
        return f"match({inner})"


@dataclass(frozen=True)
class Restrict:
    """``predicate[policy]``: apply the policy only to matching packets."""

    predicate: Match
    policy: Policy

    CHILDREN = ("policy",)

    def evaluate(self, located):
        if not self.predicate.test(located):
            return []
        return self.policy.evaluate(located)

    def describe(self):
        return f"{self.predicate.describe()}[{self.policy.describe()}]"


@dataclass(frozen=True)
class Parallel:
    """Apply both policies and take the union of their ports."""

    left: Policy
    right: Policy

    CHILDREN = ("left", "right")

    def evaluate(self, located):
        return self.left.evaluate(located) + self.right.evaluate(located)

    def describe(self):
        return f"({self.left.describe()} | {self.right.describe()})"


Policy = Union[Fwd, Restrict, Parallel]


def _replace_at(node: Policy, path: Tuple[str, ...],
                replacement: Policy) -> Policy:
    """``node`` with the sub-policy at ``path`` replaced; every node off the
    path is shared."""
    if not path:
        return replacement
    name = path[0]
    return replace(node, **{name: _replace_at(getattr(node, name), path[1:],
                                              replacement)})


class PolicyController(Controller):
    """Evaluates a policy reactively, installing micro-flow entries."""

    name = "policy"

    def __init__(self, policy: Policy):
        self.policy = policy

    def handle_packet_in(self, event: PacketInEvent) -> List[object]:
        ports = self.policy.evaluate(
            LocatedPacket(event.packet, event.switch_id, event.in_port))
        header = event.packet.header()
        micro_match = {name: header[name]
                       for name in ("src_ip", "dst_ip", "src_port", "dst_port")}
        messages: List[object] = [
            FlowMod(event.switch_id,
                    FlowEntry.create(micro_match, port, priority=PRIORITY))
            for port in ports or (DROP_PORT,)]
        if ports:
            # Released by the first port, right after that port's entry.
            messages.insert(1, PacketOut(event.switch_id, ports[0],
                                         event.packet))
        return messages


class PolicyRepairer:
    """Generates repair candidates for a policy program.

    The search walks the policy tree, treating match values and forwarding
    ports as meta tuples.  For a packet that should be delivered but is not,
    it proposes: fixing a failing ``match`` value, deleting a failing
    restriction, changing a ``fwd`` port, and adding a dedicated branch for
    the affected traffic (the analogue of "manually installing a flow
    entry").
    """

    COSTS = {"change_match": 1.1, "delete_restriction": 2.0,
             "change_port": 1.3, "add_branch": 2.6}

    def __init__(self, policy: Policy):
        self.policy = policy

    def repair_missing_delivery(self, goal: DeliveryGoal) -> List[LanguageRepair]:
        located = LocatedPacket(goal.packet, goal.switch, goal.in_port)
        candidates: List[LanguageRepair] = []
        self._repair_node(self.policy, (), located, goal, candidates)
        # "Manual" fix: add a parallel branch matching exactly this traffic.
        if goal.expected_port is not None:
            branch = Match(switch=goal.switch,
                           dst_port=goal.packet.dst_port)[Fwd(goal.expected_port)]
            candidates.append(LanguageRepair(
                description=f"add branch {branch.describe()}",
                cost=self.COSTS["add_branch"],
                program=Parallel(self.policy, branch), kind="add_branch"))
        return _ranked(candidates)

    def _repair_node(self, node: Policy, path: Tuple[str, ...],
                     located: LocatedPacket, goal: DeliveryGoal,
                     out: List[LanguageRepair], reachable: bool = True):
        if isinstance(node, Restrict):
            predicate_holds = node.predicate.test(located)
            if not predicate_holds and self._could_forward(node.policy, goal):
                # Only restrictions guarding a branch that could forward the
                # affected traffic towards the goal are worth repairing.
                for name, value in node.predicate.fields:
                    actual = located.field_value(name)
                    if actual == value:
                        continue
                    fixed = Match(**dict(node.predicate.fields, **{name: actual}))
                    out.append(LanguageRepair(
                        description=(f"change match {name}={value!r} to "
                                     f"{name}={actual!r} in "
                                     f"{node.predicate.describe()}"),
                        cost=self.COSTS["change_match"],
                        program=_replace_at(self.policy, path,
                                            replace(node, predicate=fixed)),
                        kind="change_match"))
                out.append(LanguageRepair(
                    description=f"delete restriction {node.predicate.describe()}",
                    cost=self.COSTS["delete_restriction"],
                    program=_replace_at(self.policy, path, node.policy),
                    kind="delete_restriction"))
            self._repair_node(node.policy, path + ("policy",), located, goal,
                              out, reachable=reachable and predicate_holds)
            return
        if isinstance(node, Fwd) and reachable and goal.expected_port is not None \
                and node.port != goal.expected_port:
            out.append(LanguageRepair(
                description=f"change fwd({node.port}) to fwd({goal.expected_port})",
                cost=self.COSTS["change_port"],
                program=_replace_at(self.policy, path, Fwd(goal.expected_port)),
                kind="change_port"))
        for name in node.CHILDREN:
            self._repair_node(getattr(node, name), path + (name,), located,
                              goal, out, reachable=reachable)

    def _could_forward(self, node: Policy, goal: DeliveryGoal) -> bool:
        """True if the sub-policy contains a forwarding action that could
        satisfy the goal (the goal port, or any port when unspecified)."""
        if isinstance(node, Fwd):
            return goal.expected_port is None or node.port == goal.expected_port
        return any(self._could_forward(getattr(node, name), goal)
                   for name in node.CHILDREN)


# ---------------------------------------------------------------------------
# RubyFlow (Trema substitute)
# ---------------------------------------------------------------------------
#
# Expressions evaluate against the PacketIn's located packet; statements
# append the FlowMods and PacketOuts they emit to a list.


_COMPARISONS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def _compare(op: str, left, right) -> bool:
    """``left op right``; values that cannot be ordered compare false."""
    try:
        return _COMPARISONS[op](left, right)
    except TypeError:
        return False


@dataclass(frozen=True)
class Lit:
    """A literal constant."""

    value: object

    def evaluate(self, located):
        return self.value

    def describe(self):
        return repr(self.value)


@dataclass(frozen=True)
class FieldRef:
    """A reference to a packet header field (``packet.dst_port``) or to the
    special variables ``switch`` and ``in_port``."""

    name: str

    def evaluate(self, located):
        return located.field_value(self.name)

    def describe(self):
        return f"packet.{self.name}"


@dataclass(frozen=True)
class BinExpr:
    """A comparison of two expressions (an operator of ``_COMPARISONS``)."""

    op: str
    left: Expr
    right: Expr

    def evaluate(self, located):
        return _compare(self.op, self.left.evaluate(located),
                        self.right.evaluate(located))

    def describe(self):
        return f"({self.left.describe()} {self.op} {self.right.describe()})"


Expr = Union[Lit, FieldRef, BinExpr]


@dataclass(frozen=True)
class If:
    """``if condition then_body else else_body end``."""

    condition: Expr
    then_body: Tuple[Stmt, ...] = ()
    else_body: Tuple[Stmt, ...] = ()

    def execute(self, located, messages):
        branch = self.then_body if self.condition.evaluate(located) else self.else_body
        for stmt in branch:
            stmt.execute(located, messages)


@dataclass(frozen=True)
class InstallFlow:
    """``send_flow_mod_add``: install a flow entry on a switch."""

    switch: Expr
    match_fields: Tuple[Tuple[str, Expr], ...]
    port: Expr

    def execute(self, located, messages):
        switch_id = self.switch.evaluate(located)
        match = {}
        for name, expr in self.match_fields:
            value = expr.evaluate(located)
            if value is not None and value != "*":
                match[name] = value
        port = self.port.evaluate(located)
        if isinstance(switch_id, int) and isinstance(port, int):
            messages.append(FlowMod(switch_id, FlowEntry.create(
                match, port, priority=PRIORITY)))


@dataclass(frozen=True)
class SendPacketOut:
    """``send_packet_out``: release the buffered packet out of a port."""

    switch: Expr
    port: Expr

    def execute(self, located, messages):
        switch_id = self.switch.evaluate(located)
        port = self.port.evaluate(located)
        if isinstance(switch_id, int) and isinstance(port, int):
            messages.append(PacketOut(switch_id, port, located.packet))


Stmt = Union[If, InstallFlow, SendPacketOut]


@dataclass(frozen=True)
class Handler:
    """A ``packet_in`` handler: a named sequence of statements."""

    name: str
    body: Tuple[Stmt, ...] = ()


def _replace_statement(body: Tuple[Stmt, ...], path: Tuple[int, ...],
                       replacement: Stmt) -> Tuple[Stmt, ...]:
    """``body`` with the statement at ``path`` replaced; every statement off
    the path is shared.  A path is a statement index, then for each
    enclosing ``If`` the branch taken (0 then, 1 else) and the index in it."""
    index = path[0]
    if len(path) > 1:
        stmt = body[index]
        branch = ("then_body", "else_body")[path[1]]
        replacement = replace(stmt, **{branch: _replace_statement(
            getattr(stmt, branch), path[2:], replacement)})
    return body[:index] + (replacement,) + body[index + 1:]


def _contains(statements: Tuple[Stmt, ...], kinds) -> bool:
    """Is a statement of a type in ``kinds`` among ``statements``, at any
    depth?"""
    return any(isinstance(stmt, kinds) or (
        isinstance(stmt, If) and (_contains(stmt.then_body, kinds)
                                  or _contains(stmt.else_body, kinds)))
        for stmt in statements)


class ImperativeController(Controller):
    """Runs a RubyFlow handler as the controller application."""

    name = "rubyflow"

    def __init__(self, handler: Handler):
        self.handler = handler

    def handle_packet_in(self, event: PacketInEvent) -> List[object]:
        located = LocatedPacket(event.packet, event.switch_id, event.in_port)
        messages: List[object] = []
        for stmt in self.handler.body:
            stmt.execute(located, messages)
        return messages


class ImperativeRepairer:
    """Generates repair candidates for a RubyFlow handler.

    Meta tuples are the literals in if-conditions, the comparison operators,
    the field references, and the port arguments of install/packet-out calls;
    repairs are proposed by re-running the handler on the symptom packet and
    looking at which conditions failed and which calls never executed.
    """

    COSTS = {"change_constant": 1.1, "change_operator": 1.6,
             "change_field": 1.7, "change_port": 1.3,
             "delete_condition": 2.0, "add_packet_out": 2.2}

    def __init__(self, handler: Handler):
        self.handler = handler

    def repair_missing_delivery(self, goal: DeliveryGoal) -> List[LanguageRepair]:
        located = LocatedPacket(goal.packet, goal.switch, goal.in_port)
        candidates: List[LanguageRepair] = []
        self._walk(self.handler.body, (), located, goal, candidates)
        if goal.expected_port is not None and \
                not _contains(self.handler.body, SendPacketOut):
            packet_out = SendPacketOut(FieldRef("switch"), Lit(goal.expected_port))
            candidates.append(LanguageRepair(
                description=f"add send_packet_out(port={goal.expected_port})",
                cost=self.COSTS["add_packet_out"],
                program=replace(self.handler,
                                body=self.handler.body + (packet_out,)),
                kind="add_packet_out"))
        return _ranked(candidates)

    def _repair(self, description: str, cost: float, kind: str,
                path: Tuple[int, ...], statement: Stmt) -> LanguageRepair:
        """The candidate whose handler holds ``statement`` at ``path``."""
        body = _replace_statement(self.handler.body, path, statement)
        return LanguageRepair(description=description, cost=cost,
                              program=replace(self.handler, body=body),
                              kind=kind)

    def _walk(self, statements: Tuple[Stmt, ...], path: Tuple[int, ...],
              located: LocatedPacket, goal: DeliveryGoal,
              out: List[LanguageRepair]):
        for index, stmt in enumerate(statements):
            where = path + (index,)
            if isinstance(stmt, If):
                holds = bool(stmt.condition.evaluate(located))
                if not holds and _contains(stmt.then_body,
                                           (InstallFlow, SendPacketOut)):
                    out.extend(self._condition_repairs(stmt, where, located))
                branch = stmt.then_body if holds else stmt.else_body
                self._walk(branch, where + (0 if holds else 1,), located,
                           goal, out)
                continue
            if goal.expected_port is not None and \
                    stmt.port.evaluate(located) != goal.expected_port:
                out.append(self._port_repair(stmt, where, goal.expected_port))
            if isinstance(stmt, InstallFlow):
                self._field_reference_repairs(stmt, where, out)

    def _condition_repairs(self, stmt: If, path: Tuple[int, ...],
                           located: LocatedPacket) -> List[LanguageRepair]:
        repairs: List[LanguageRepair] = []
        condition = stmt.condition
        where = "/".join(str(p) for p in path)

        def edit(new_condition: Expr, description: str, cost: float):
            repairs.append(self._repair(description, cost, "change_condition",
                                        path, replace(stmt, condition=new_condition)))

        if isinstance(condition, BinExpr):
            left = condition.left.evaluate(located)
            right = condition.right.evaluate(located)
            # Change the literal operand so the condition holds.
            for side, side_expr, other in (("right", condition.right, left),
                                           ("left", condition.left, right)):
                if isinstance(side_expr, Lit) and other is not None:
                    edit(replace(condition, **{side: Lit(other)}),
                         f"change constant {side_expr.value!r} to {other!r} in "
                         f"condition {condition.describe()} at {where}",
                         self.COSTS["change_constant"])
            # Change the comparison operator.
            if left is not None and right is not None:
                for op in _COMPARISONS:
                    if op != condition.op and _compare(op, left, right):
                        edit(replace(condition, op=op),
                             f"change operator {condition.op!r} to {op!r} in "
                             f"condition {condition.describe()} at {where}",
                             self.COSTS["change_operator"])
                        break
            # Change a field reference on the left-hand side (Q5 pattern).
            if isinstance(condition.left, FieldRef):
                for field_name in ("src_ip", "dst_ip", "src_mac", "dst_mac",
                                   "in_port", "switch", "src_port", "dst_port"):
                    if field_name == condition.left.name:
                        continue
                    if located.field_value(field_name) == right:
                        edit(replace(condition, left=FieldRef(field_name)),
                             f"change field {condition.left.name} to {field_name} in "
                             f"condition {condition.describe()} at {where}",
                             self.COSTS["change_field"])
                        break
        # Delete the condition (make the then-branch unconditional).
        edit(Lit(True), f"delete condition {condition.describe()} at {where}",
             self.COSTS["delete_condition"])
        return repairs

    def _port_repair(self, stmt: Union[InstallFlow, SendPacketOut],
                     path: Tuple[int, ...], new_port: int) -> LanguageRepair:
        what = "flow entry" if isinstance(stmt, InstallFlow) else "packet out"
        return self._repair(f"change {what} output port to {new_port}",
                            self.COSTS["change_port"], "change_port", path,
                            replace(stmt, port=Lit(new_port)))

    def _field_reference_repairs(self, stmt: InstallFlow, path: Tuple[int, ...],
                                 out: List[LanguageRepair]):
        """Propose replacing a wildcard match argument with a packet field.

        This is the Q5 class of repairs: the MAC-learning handler installs
        entries that fail to match on the source address; adding the missing
        field reference fixes it.
        """
        for name, expr in stmt.match_fields:
            if isinstance(expr, Lit) and expr.value in ("*", None):
                fields = tuple((other, FieldRef(other) if other == name else value)
                               for other, value in stmt.match_fields)
                out.append(self._repair(
                    f"match on packet.{name} instead of wildcard",
                    self.COSTS["change_field"], "change_field", path,
                    replace(stmt, match_fields=fields)))


# ---------------------------------------------------------------------------
# The two Q1 scenarios
# ---------------------------------------------------------------------------


@dataclass
class LanguageBacktestResult:
    """Backtest outcome for one repaired policy/handler."""

    description: str
    cost: float
    effective: bool
    accepted: bool
    ks_statistic: float


@dataclass
class LanguageScenarioReport:
    """Counts reported in Table 3: generated vs surviving candidates."""

    language: str
    scenario: str
    generated: int
    accepted: int
    results: List[LanguageBacktestResult]


class _LanguageScenario:
    """Q1 in one front end: a subclass names the language, its controller
    and repairer classes, and builds the buggy program."""

    scenario = "Q1"
    ks_threshold = 0.12
    target_host = H2

    def __init__(self):
        self.trace = q1_trace(q1_topology())

    def run(self, program) -> TrafficStats:
        simulator = NetworkSimulator(q1_topology(), self.controller(program),
                                     record_ingress=False)
        simulator.run_trace(self.trace)
        return simulator.stats

    def generate_candidates(self) -> List[LanguageRepair]:
        sample = Packet(src_ip=OFFLOADED_CLIENTS[0], dst_ip=WEB_VIP,
                        dst_port=HTTP_PORT)
        goal = DeliveryGoal(packet=sample, switch=3, expected_port=2)
        return self.repairer(self.baseline_program()).repair_missing_delivery(goal)

    def backtest(self, candidates: List[LanguageRepair]) -> LanguageScenarioReport:
        baseline = self.run(self.baseline_program())
        results: List[LanguageBacktestResult] = []
        for candidate in candidates:
            stats = self.run(candidate.program)
            ks = compare_traffic(baseline, stats)
            effective = stats.delivered_to(self.target_host) > 0
            accepted = effective and ks.statistic <= self.ks_threshold
            results.append(LanguageBacktestResult(
                description=candidate.description, cost=candidate.cost,
                effective=effective, accepted=accepted,
                ks_statistic=ks.statistic))
        return LanguageScenarioReport(
            language=self.language, scenario=self.scenario,
            generated=len(candidates),
            accepted=sum(1 for r in results if r.accepted),
            results=results)

    def diagnose(self) -> LanguageScenarioReport:
        return self.backtest(self.generate_candidates())


class PolicyQ1Scenario(_LanguageScenario):
    """Q1 re-created in the policy language (the Pyretic column of Table 3).

    The buggy policy forwards the offloaded web traffic at switch 2 instead of
    switch 3 — the same copy-and-paste mistake expressed as a ``match``
    restriction with the wrong switch id.  The match syntax offers fewer
    degrees of freedom than NDlog (no operator changes), so fewer candidates
    are generated, matching the paper's observation.
    """

    language = "pyretic"
    controller = PolicyController
    repairer = PolicyRepairer

    def baseline_program(self) -> Policy:
        # The offloaded-client branches come first so that their forwarding
        # decision takes precedence over the general web branch at S1 (the
        # policy equivalent of rule priorities).
        policy: Optional[Policy] = None
        for client in OFFLOADED_CLIENTS:
            branch = Match(switch=1, src_ip=client, dst_port=HTTP_PORT)[Fwd(2)]
            policy = branch if policy is None else Parallel(policy, branch)
        policy = Parallel(policy, Match(switch=1, dst_port=HTTP_PORT)[Fwd(1)])
        policy = Parallel(policy, Match(switch=2, dst_port=HTTP_PORT)[Fwd(1)])
        policy = Parallel(policy, Match(switch=4, dst_port=HTTP_PORT)[Fwd(1)])
        policy = Parallel(policy, Match(switch=1, dst_port=53)[Fwd(2)])
        policy = Parallel(policy, Match(switch=3, dst_port=53)[Fwd(1)])
        policy = Parallel(policy, Match(switch=4, dst_port=53)[Fwd(3)])
        # BUG: the branch for the backup server was copied from the switch-2
        # branch and the switch id was never updated to 3.
        policy = Parallel(policy, Match(switch=2, dst_port=HTTP_PORT)[Fwd(2)])
        return policy


class ImperativeQ1Scenario(_LanguageScenario):
    """Q1 re-created in RubyFlow (the Trema column of Table 3)."""

    language = "trema"
    controller = ImperativeController
    repairer = ImperativeRepairer

    def baseline_program(self) -> Handler:
        body = (
            # Ingress switch S1: DNS towards S3, web towards S2, offloaded
            # clients towards S3.
            If(BinExpr("==", FieldRef("switch"), Lit(1)), (
                If(BinExpr("==", FieldRef("dst_port"), Lit(53)),
                   self._forward(2)),
                If(BinExpr("==", FieldRef("dst_port"), Lit(80)), (
                    If(BinExpr("<=", FieldRef("src_ip"),
                               Lit(max(OFFLOADED_CLIENTS))),
                       self._forward(2), self._forward(1)),
                )),
            )),
            # S2: web traffic to the primary server H1.
            If(BinExpr("==", FieldRef("switch"), Lit(2)), (
                If(BinExpr("==", FieldRef("dst_port"), Lit(80)),
                   self._forward(1)),
            )),
            # The copied branch for the backup server: the switch id was never
            # updated from 2 to 3, so switch 3 never gets an entry (the bug).
            If(BinExpr("==", FieldRef("switch"), Lit(2)), (
                If(BinExpr("==", FieldRef("dst_port"), Lit(80)),
                   self._forward(2)),
            )),
            # S3: DNS server.
            If(BinExpr("==", FieldRef("switch"), Lit(3)), (
                If(BinExpr("==", FieldRef("dst_port"), Lit(53)),
                   self._forward(1)),
            )),
            # S4: local web server and DNS uplink.
            If(BinExpr("==", FieldRef("switch"), Lit(4)), (
                If(BinExpr("==", FieldRef("dst_port"), Lit(80)),
                   self._forward(1)),
                If(BinExpr("==", FieldRef("dst_port"), Lit(53)),
                   self._forward(3)),
            )),
        )
        return Handler("packet_in", body)

    @staticmethod
    def _forward(port: int) -> Tuple[Stmt, ...]:
        # The flow entry is installed on whatever switch raised the PacketIn
        # (the Trema idiom ``send_flow_mod_add datapath_id``); the literal
        # switch id only appears in the surrounding condition.
        return (InstallFlow(FieldRef("switch"),
                            (("src_ip", FieldRef("src_ip")),
                             ("dst_port", FieldRef("dst_port"))),
                            Lit(port)),
                SendPacketOut(FieldRef("switch"), Lit(port)))


def language_reports() -> List[LanguageScenarioReport]:
    """Run the Q1 re-creation for both non-NDlog languages (Table 3 input)."""
    return [PolicyQ1Scenario().diagnose(), ImperativeQ1Scenario().diagnose()]
