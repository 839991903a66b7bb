"""An imperative controller language ("RubyFlow") — the Trema substitute.

The paper's Trema meta model (Appendix B.2) covers an imperative packet-in
handler: local variables, if-clauses, hash tables (used for MAC learning),
calls that install flow entries and calls that emit packet-outs.  RubyFlow is
a small AST-interpreted language with exactly those constructs, so the same
classes of bugs (wrong constant in a condition, wrong match field, missing
packet-out call) and the same classes of repairs are expressible.

The meta model / repair search is :class:`ImperativeRepairer`: constants,
comparison operators, field references and call arguments are the meta
tuples; repairs are generated for a missing-delivery symptom by symbolically
re-executing the handler on a representative packet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sdn.controller import Controller, FlowMod, PacketInEvent, PacketOut
from ..sdn.packets import Packet
from ..sdn.switch import DROP_PORT, FLOOD_PORT, FlowEntry


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    def evaluate(self, env: "Env"):
        raise NotImplementedError

    def clone(self) -> "Expr":
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __str__(self):
        return self.describe()


@dataclass
class Lit(Expr):
    """A literal constant."""

    value: object

    def evaluate(self, env):
        return self.value

    def clone(self):
        return Lit(self.value)

    def describe(self):
        return repr(self.value)


@dataclass
class FieldRef(Expr):
    """A reference to a packet header field (``packet.dst_port``) or to the
    special variables ``switch`` and ``in_port``."""

    name: str

    def evaluate(self, env):
        return env.field(self.name)

    def clone(self):
        return FieldRef(self.name)

    def describe(self):
        return f"packet.{self.name}"


@dataclass
class VarRef(Expr):
    """A reference to a local variable set by ``Assign``."""

    name: str

    def evaluate(self, env):
        return env.variables.get(self.name)

    def clone(self):
        return VarRef(self.name)

    def describe(self):
        return self.name


@dataclass
class BinExpr(Expr):
    """A binary comparison or arithmetic expression."""

    op: str
    left: Expr
    right: Expr

    _OPS = {
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        ">": lambda a, b: a > b,
        "<=": lambda a, b: a <= b,
        ">=": lambda a, b: a >= b,
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "and": lambda a, b: bool(a) and bool(b),
        "or": lambda a, b: bool(a) or bool(b),
    }

    def evaluate(self, env):
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        try:
            return self._OPS[self.op](left, right)
        except TypeError:
            return False

    def clone(self):
        return BinExpr(self.op, self.left.clone(), self.right.clone())

    def describe(self):
        return f"({self.left.describe()} {self.op} {self.right.describe()})"


@dataclass
class HashGet(Expr):
    """Read from a controller-state hash table (e.g. the MAC learning table)."""

    table: str
    key: Expr
    default: object = None

    def evaluate(self, env):
        return env.state.get(self.table, {}).get(self.key.evaluate(env), self.default)

    def clone(self):
        return HashGet(self.table, self.key.clone(), self.default)

    def describe(self):
        return f"{self.table}[{self.key.describe()}]"


@dataclass
class HashHas(Expr):
    """Check whether a key is present in a controller-state hash table."""

    table: str
    key: Expr

    def evaluate(self, env):
        return self.key.evaluate(env) in env.state.get(self.table, {})

    def clone(self):
        return HashHas(self.table, self.key.clone())

    def describe(self):
        return f"{self.table}.include?({self.key.describe()})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    def execute(self, env: "Env"):
        raise NotImplementedError

    def clone(self) -> "Stmt":
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def children(self) -> List["Stmt"]:
        return []


@dataclass
class Assign(Stmt):
    name: str
    expr: Expr

    def execute(self, env):
        env.variables[self.name] = self.expr.evaluate(env)

    def clone(self):
        return Assign(self.name, self.expr.clone())

    def describe(self):
        return f"{self.name} = {self.expr.describe()}"


@dataclass
class If(Stmt):
    condition: Expr
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)

    def execute(self, env):
        branch = self.then_body if self.condition.evaluate(env) else self.else_body
        for stmt in branch:
            stmt.execute(env)

    def clone(self):
        return If(self.condition.clone(),
                  [s.clone() for s in self.then_body],
                  [s.clone() for s in self.else_body])

    def describe(self):
        return f"if {self.condition.describe()}"

    def children(self):
        return list(self.then_body) + list(self.else_body)


@dataclass
class HashPut(Stmt):
    table: str
    key: Expr
    value: Expr

    def execute(self, env):
        env.state.setdefault(self.table, {})[self.key.evaluate(env)] = \
            self.value.evaluate(env)

    def clone(self):
        return HashPut(self.table, self.key.clone(), self.value.clone())

    def describe(self):
        return f"{self.table}[{self.key.describe()}] = {self.value.describe()}"


@dataclass
class InstallFlow(Stmt):
    """``send_flow_mod_add``: install a flow entry on a switch."""

    switch: Expr
    match_fields: Dict[str, Expr]
    out_port: Expr
    priority: int = 10

    def execute(self, env):
        switch_id = self.switch.evaluate(env)
        match = {}
        for name, expr in self.match_fields.items():
            value = expr.evaluate(env)
            if value is not None and value != "*":
                match[name] = value
        port = self.out_port.evaluate(env)
        if not isinstance(switch_id, int) or not isinstance(port, int):
            return
        entry = FlowEntry.create(match, port, priority=self.priority,
                                 tags=env.tags)
        env.messages.append(FlowMod(switch_id, entry))
        env.installed_ports.append((switch_id, port))

    def clone(self):
        return InstallFlow(self.switch.clone(),
                           {k: v.clone() for k, v in self.match_fields.items()},
                           self.out_port.clone(), self.priority)

    def describe(self):
        match = ", ".join(f"{k}={v.describe()}" for k, v in self.match_fields.items())
        return (f"send_flow_mod_add(switch={self.switch.describe()}, "
                f"match({match}), port={self.out_port.describe()})")


@dataclass
class SendPacketOut(Stmt):
    """``send_packet_out``: release the buffered packet out of a port."""

    switch: Expr
    port: Expr

    def execute(self, env):
        switch_id = self.switch.evaluate(env)
        port = self.port.evaluate(env)
        if isinstance(switch_id, int) and isinstance(port, int):
            env.messages.append(PacketOut(switch_id, port, env.packet))

    def clone(self):
        return SendPacketOut(self.switch.clone(), self.port.clone())

    def describe(self):
        return (f"send_packet_out(switch={self.switch.describe()}, "
                f"port={self.port.describe()})")


@dataclass
class Handler:
    """A ``packet_in`` handler: a named list of statements."""

    name: str
    body: List[Stmt] = field(default_factory=list)

    def clone(self) -> "Handler":
        return Handler(self.name, [s.clone() for s in self.body])

    def describe(self) -> str:
        return "\n".join(s.describe() for s in self.body)

    def line_count(self) -> int:
        def count(statements: Sequence[Stmt]) -> int:
            total = 0
            for stmt in statements:
                total += 1
                if isinstance(stmt, If):
                    total += count(stmt.then_body) + count(stmt.else_body)
            return total
        return count(self.body)


# ---------------------------------------------------------------------------
# Interpreter / controller
# ---------------------------------------------------------------------------


class Env:
    """Execution environment for one handler invocation."""

    def __init__(self, packet: Packet, switch: int, in_port: Optional[int],
                 state: Dict[str, Dict], tags: Tuple[str, ...] = ()):
        self.packet = packet
        self.switch = switch
        self.in_port = in_port
        self.state = state
        self.variables: Dict[str, object] = {}
        self.messages: List[object] = []
        self.installed_ports: List[Tuple[int, int]] = []
        self.tags = tags

    def field(self, name: str):
        if name == "switch":
            return self.switch
        if name == "in_port":
            return self.in_port
        return self.packet.header().get(name)


class ImperativeController(Controller):
    """Runs a RubyFlow handler as the controller application."""

    name = "rubyflow"

    def __init__(self, handler: Handler, tags: Tuple[str, ...] = ()):
        self.handler = handler
        self.tags = tags
        self.state: Dict[str, Dict] = {}

    def handle_packet_in(self, event: PacketInEvent) -> List[object]:
        env = Env(event.packet, event.switch_id, event.in_port, self.state,
                  tags=self.tags)
        for stmt in self.handler.body:
            stmt.execute(env)
        return env.messages

    def reset(self):
        self.state = {}


# ---------------------------------------------------------------------------
# Meta model / repair search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImperativeRepair:
    """A repair candidate for a RubyFlow handler."""

    description: str
    cost: float
    handler: Handler
    kind: str = "imperative_edit"

    def __str__(self):
        return f"[cost {self.cost:.2f}] {self.description}"


@dataclass(frozen=True)
class ImperativeDeliveryGoal:
    """Symptom: a representative packet should be forwarded out of a port."""

    packet: Packet
    switch: int
    expected_port: Optional[int] = None
    in_port: Optional[int] = None


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

    _COMPARISONS = ("==", "!=", "<", ">", "<=", ">=")

    def __init__(self, handler: Handler, max_candidates: int = 20):
        self.handler = handler
        self.max_candidates = max_candidates

    def repair_missing_delivery(self, goal: ImperativeDeliveryGoal,
                                state: Optional[Dict[str, Dict]] = None
                                ) -> List[ImperativeRepair]:
        env = Env(goal.packet, goal.switch, goal.in_port, dict(state or {}))
        candidates: List[ImperativeRepair] = []
        self._walk(self.handler.body, [], env, goal, candidates)
        if goal.expected_port is not None and not self._has_packet_out(self.handler.body):
            repaired = self.handler.clone()
            repaired.body.append(SendPacketOut(FieldRef("switch"),
                                               Lit(goal.expected_port)))
            candidates.append(ImperativeRepair(
                description=f"add send_packet_out(port={goal.expected_port})",
                cost=self.COSTS["add_packet_out"], handler=repaired,
                kind="add_packet_out"))
        unique: Dict[str, ImperativeRepair] = {}
        for candidate in candidates:
            if candidate.description not in unique or \
                    candidate.cost < unique[candidate.description].cost:
                unique[candidate.description] = candidate
        # Stable: equal costs keep the order the walk proposed them in.
        ranked = sorted(unique.values(), key=lambda c: c.cost)
        return ranked[: self.max_candidates]

    # -- helpers --------------------------------------------------------------

    def _has_packet_out(self, statements: Sequence[Stmt]) -> bool:
        for stmt in statements:
            if isinstance(stmt, SendPacketOut):
                return True
            if isinstance(stmt, If) and (self._has_packet_out(stmt.then_body)
                                         or self._has_packet_out(stmt.else_body)):
                return True
        return False

    def _walk(self, statements: Sequence[Stmt], path: List[int], env: Env,
              goal: ImperativeDeliveryGoal, out: List[ImperativeRepair]):
        for index, stmt in enumerate(statements):
            where = path + [index]
            if isinstance(stmt, Assign):
                stmt.execute(env)
            elif isinstance(stmt, HashPut):
                stmt.execute(env)
            elif isinstance(stmt, If):
                holds = bool(stmt.condition.evaluate(env))
                if not holds and self._contains_forwarding(stmt.then_body):
                    out.extend(self._condition_repairs(stmt, where, env))
                branch = stmt.then_body if holds else stmt.else_body
                self._walk(branch, where + [0 if holds else 1], env, goal, out)
            elif isinstance(stmt, InstallFlow):
                port = stmt.out_port.evaluate(env)
                if goal.expected_port is not None and port != goal.expected_port:
                    out.append(self._port_repair(stmt, where, goal.expected_port,
                                                 "flow entry"))
                self._field_reference_repairs(stmt, where, env, out)
            elif isinstance(stmt, SendPacketOut):
                port = stmt.port.evaluate(env)
                if goal.expected_port is not None and port != goal.expected_port:
                    out.append(self._port_repair(stmt, where, goal.expected_port,
                                                 "packet out"))

    def _contains_forwarding(self, statements: Sequence[Stmt]) -> bool:
        for stmt in statements:
            if isinstance(stmt, (InstallFlow, SendPacketOut)):
                return True
            if isinstance(stmt, If) and (self._contains_forwarding(stmt.then_body)
                                         or self._contains_forwarding(stmt.else_body)):
                return True
        return False

    def _condition_repairs(self, stmt: If, path: List[int], env: Env
                           ) -> List[ImperativeRepair]:
        repairs: List[ImperativeRepair] = []
        condition = stmt.condition
        where = "/".join(str(p) for p in path)
        if isinstance(condition, BinExpr) and condition.op in self._COMPARISONS:
            left = condition.left.evaluate(env)
            right = condition.right.evaluate(env)
            # Change the literal operand so the condition holds.
            for side_name, side_expr, other in (("right", condition.right, left),
                                                ("left", condition.left, right)):
                if isinstance(side_expr, Lit) and other is not None:
                    repairs.append(self._rebuild_condition(
                        stmt, path,
                        BinExpr(condition.op,
                                condition.left.clone() if side_name == "right" else Lit(other),
                                Lit(other) if side_name == "right" else condition.right.clone()),
                        f"change constant {side_expr.value!r} to {other!r} in "
                        f"condition {condition.describe()} at {where}",
                        self.COSTS["change_constant"]))
            # Change the comparison operator.
            if left is not None and right is not None:
                for op in self._COMPARISONS:
                    if op == condition.op:
                        continue
                    if BinExpr(op, Lit(left), Lit(right)).evaluate(env):
                        repairs.append(self._rebuild_condition(
                            stmt, path,
                            BinExpr(op, condition.left.clone(), condition.right.clone()),
                            f"change operator {condition.op!r} to {op!r} in "
                            f"condition {condition.describe()} at {where}",
                            self.COSTS["change_operator"]))
                        break
            # Change a field reference on the left-hand side (Q5 pattern).
            if isinstance(condition.left, FieldRef) and condition.right is not None:
                target = condition.right.evaluate(env)
                for field_name in ("src_ip", "dst_ip", "src_mac", "dst_mac",
                                   "in_port", "switch", "src_port", "dst_port"):
                    if field_name == condition.left.name:
                        continue
                    if env.field(field_name) == target:
                        repairs.append(self._rebuild_condition(
                            stmt, path,
                            BinExpr(condition.op, FieldRef(field_name),
                                    condition.right.clone()),
                            f"change field {condition.left.name} to {field_name} in "
                            f"condition {condition.describe()} at {where}",
                            self.COSTS["change_field"]))
                        break
        # Delete the condition (make the then-branch unconditional).
        repairs.append(self._rebuild_condition(
            stmt, path, Lit(True),
            f"delete condition {condition.describe()} at {where}",
            self.COSTS["delete_condition"]))
        return repairs

    def _rebuild_condition(self, stmt: If, path: List[int], new_condition: Expr,
                           description: str, cost: float) -> ImperativeRepair:
        repaired = self.handler.clone()
        target = self._statement_at(repaired.body, path)
        if isinstance(target, If):
            target.condition = new_condition
        return ImperativeRepair(description=description, cost=cost,
                                handler=repaired, kind="change_condition")

    def _port_repair(self, stmt: Stmt, path: List[int], new_port: int,
                     what: str) -> ImperativeRepair:
        repaired = self.handler.clone()
        target = self._statement_at(repaired.body, path)
        if isinstance(target, InstallFlow):
            target.out_port = Lit(new_port)
        elif isinstance(target, SendPacketOut):
            target.port = Lit(new_port)
        return ImperativeRepair(
            description=f"change {what} output port to {new_port}",
            cost=self.COSTS["change_port"], handler=repaired, kind="change_port")

    def _field_reference_repairs(self, stmt: InstallFlow, path: List[int],
                                 env: Env, out: List[ImperativeRepair]):
        """Propose replacing a wildcard match argument with a packet field.

        This is the Q5 class of repairs: the MAC-learning handler installs
        entries that fail to match on the source address; adding the missing
        field reference fixes it.
        """
        for name, expr in stmt.match_fields.items():
            if isinstance(expr, Lit) and expr.value in ("*", None):
                repaired = self.handler.clone()
                target = self._statement_at(repaired.body, path)
                if isinstance(target, InstallFlow):
                    target.match_fields[name] = FieldRef(name)
                out.append(ImperativeRepair(
                    description=f"match on packet.{name} instead of wildcard",
                    cost=self.COSTS["change_field"], handler=repaired,
                    kind="change_field"))

    def _statement_at(self, body: List[Stmt], path: Sequence[int]) -> Optional[Stmt]:
        """Resolve a statement path produced by :meth:`_walk`."""
        statements = body
        stmt: Optional[Stmt] = None
        index = 0
        while index < len(path):
            position = path[index]
            if position >= len(statements):
                return stmt
            stmt = statements[position]
            index += 1
            if index < len(path) and isinstance(stmt, If):
                branch = path[index]
                statements = stmt.then_body if branch == 0 else stmt.else_body
                index += 1
            elif index < len(path):
                return stmt
        return stmt
