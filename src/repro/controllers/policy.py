"""A NetCore-style policy DSL — the Pyretic substitute (Section 5.8).

The DSL provides the static policy combinators of Pyretic/NetCore (Figure 16
of the paper's appendix): primitive actions (``fwd``, ``drop``, ``mod``),
predicate restriction (``match(...)[policy]``), parallel composition
(``p1 | p2``) and sequential composition (``p1 >> p2``).  A
:class:`PolicyController` evaluates the policy reactively, installing
micro-flow entries.

The meta model for this language lives in :class:`PolicyRepairer`: it treats
the policy tree as data (every match value and forwarding port is a meta
tuple with a path into the tree) and generates repair candidates for a
missing-delivery symptom.  As the paper notes for Pyretic, the match syntax
does not permit operator changes, so the candidate space is smaller than for
NDlog — which is exactly the effect visible in Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sdn.controller import Controller, FlowMod, PacketInEvent, PacketOut
from ..sdn.packets import Packet
from ..sdn.switch import DROP_PORT, FLOOD_PORT, FlowEntry


@dataclass(frozen=True)
class LocatedPacket:
    """A packet at a specific switch/ingress port, as policies see it."""

    packet: Packet
    switch: int
    in_port: Optional[int] = None
    out_port: Optional[int] = None

    def field_value(self, name: str):
        if name == "switch":
            return self.switch
        if name == "in_port":
            return self.in_port
        return self.packet.header().get(name)

    def forwarded(self, port: int) -> "LocatedPacket":
        return LocatedPacket(self.packet, self.switch, self.in_port, port)

    def modified(self, name: str, value) -> "LocatedPacket":
        if name in ("switch", "in_port"):
            raise ValueError(f"cannot modify location field {name!r}")
        return LocatedPacket(self.packet.with_fields(**{name: value}),
                             self.switch, self.in_port, self.out_port)


# ---------------------------------------------------------------------------
# Policy combinators
# ---------------------------------------------------------------------------


class Policy:
    """Base class: a policy maps a located packet to a set of located packets."""

    def evaluate(self, located: LocatedPacket) -> List[LocatedPacket]:
        raise NotImplementedError

    def children(self) -> List["Policy"]:
        return []

    def replace_child(self, index: int, new_child: "Policy") -> "Policy":
        raise IndexError(f"{type(self).__name__} has no child {index}")

    def clone(self) -> "Policy":
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    # Composition operators.
    def __or__(self, other: "Policy") -> "Policy":
        return Parallel(self, other)

    def __rshift__(self, other: "Policy") -> "Policy":
        return Sequential(self, other)

    def __str__(self):
        return self.describe()

    def node_count(self) -> int:
        return 1 + sum(child.node_count() for child in self.children())


class Drop(Policy):
    """Drop every packet."""

    def evaluate(self, located):
        return []

    def clone(self):
        return Drop()

    def describe(self):
        return "drop"


class Fwd(Policy):
    """Forward out of a fixed port."""

    def __init__(self, port: int):
        self.port = port

    def evaluate(self, located):
        return [located.forwarded(self.port)]

    def clone(self):
        return Fwd(self.port)

    def describe(self):
        return f"fwd({self.port})"


class Flood(Policy):
    """Flood (forward out of the special flood port)."""

    def evaluate(self, located):
        return [located.forwarded(FLOOD_PORT)]

    def clone(self):
        return Flood()

    def describe(self):
        return "flood"


class Mod(Policy):
    """Rewrite one header field and pass the packet on."""

    def __init__(self, field_name: str, value):
        self.field_name = field_name
        self.value = value

    def evaluate(self, located):
        return [located.modified(self.field_name, self.value)]

    def clone(self):
        return Mod(self.field_name, self.value)

    def describe(self):
        return f"mod({self.field_name}={self.value})"


class Match(Policy):
    """A predicate on header/location fields.

    Used alone it acts as a filter; ``match(...)[policy]`` builds a
    :class:`Restrict` that applies ``policy`` only to matching packets.
    """

    def __init__(self, **fields):
        self.fields = dict(fields)

    def test(self, located: LocatedPacket) -> bool:
        return all(located.field_value(name) == value
                   for name, value in self.fields.items())

    def evaluate(self, located):
        return [located] if self.test(located) else []

    def __getitem__(self, policy: Policy) -> "Restrict":
        return Restrict(self, policy)

    def clone(self):
        return Match(**self.fields)

    def describe(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"match({inner})"


class Restrict(Policy):
    """``predicate[policy]``: apply the policy only to matching packets."""

    def __init__(self, predicate: Match, policy: Policy):
        self.predicate = predicate
        self.policy = policy

    def evaluate(self, located):
        if not self.predicate.test(located):
            return []
        return self.policy.evaluate(located)

    def children(self):
        return [self.policy]

    def replace_child(self, index, new_child):
        if index != 0:
            raise IndexError(index)
        return Restrict(self.predicate.clone(), new_child)

    def clone(self):
        return Restrict(self.predicate.clone(), self.policy.clone())

    def describe(self):
        return f"{self.predicate.describe()}[{self.policy.describe()}]"


class Parallel(Policy):
    """Apply both policies and take the union of the results."""

    def __init__(self, left: Policy, right: Policy):
        self.left = left
        self.right = right

    def evaluate(self, located):
        return self.left.evaluate(located) + self.right.evaluate(located)

    def children(self):
        return [self.left, self.right]

    def replace_child(self, index, new_child):
        if index == 0:
            return Parallel(new_child, self.right.clone())
        if index == 1:
            return Parallel(self.left.clone(), new_child)
        raise IndexError(index)

    def clone(self):
        return Parallel(self.left.clone(), self.right.clone())

    def describe(self):
        return f"({self.left.describe()} | {self.right.describe()})"


class Sequential(Policy):
    """Feed the output packets of the first policy into the second."""

    def __init__(self, first: Policy, second: Policy):
        self.first = first
        self.second = second

    def evaluate(self, located):
        out: List[LocatedPacket] = []
        for intermediate in self.first.evaluate(located):
            out.extend(self.second.evaluate(intermediate))
        return out

    def children(self):
        return [self.first, self.second]

    def replace_child(self, index, new_child):
        if index == 0:
            return Sequential(new_child, self.second.clone())
        if index == 1:
            return Sequential(self.first.clone(), new_child)
        raise IndexError(index)

    def clone(self):
        return Sequential(self.first.clone(), self.second.clone())

    def describe(self):
        return f"({self.first.describe()} >> {self.second.describe()})"


# Lower-case aliases matching Pyretic's surface syntax.
def match(**fields) -> Match:
    return Match(**fields)


def fwd(port: int) -> Fwd:
    return Fwd(port)


def drop() -> Drop:
    return Drop()


def flood() -> Flood:
    return Flood()


def modify(field_name: str, value) -> Mod:
    return Mod(field_name, value)


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------


class PolicyController(Controller):
    """Evaluates a policy reactively, installing micro-flow entries."""

    name = "policy"

    def __init__(self, policy: Policy, priority: int = 10,
                 tags: Tuple[str, ...] = ()):
        self.policy = policy
        self.priority = priority
        self.tags = tags

    def handle_packet_in(self, event: PacketInEvent) -> List[object]:
        located = LocatedPacket(event.packet, event.switch_id, event.in_port)
        results = self.policy.evaluate(located)
        messages: List[object] = []
        header = event.packet.header()
        micro_match = {"src_ip": header["src_ip"], "dst_ip": header["dst_ip"],
                       "src_port": header["src_port"], "dst_port": header["dst_port"]}
        forwarded = False
        if not results:
            entry = FlowEntry.create(micro_match, DROP_PORT,
                                     priority=self.priority, tags=self.tags)
            messages.append(FlowMod(event.switch_id, entry))
            return messages
        for outcome in results:
            if outcome.out_port is None:
                continue
            entry = FlowEntry.create(micro_match, outcome.out_port,
                                     priority=self.priority, tags=self.tags)
            messages.append(FlowMod(event.switch_id, entry))
            if not forwarded:
                messages.append(PacketOut(event.switch_id, outcome.out_port,
                                          event.packet))
                forwarded = True
        return messages

    def reset(self):
        """Policies are stateless; nothing to reset."""


# ---------------------------------------------------------------------------
# Meta model / repair search over the policy tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyRepair:
    """A repair candidate for a policy program."""

    description: str
    cost: float
    policy: Policy            # the full repaired policy
    kind: str = "policy_edit"

    def __str__(self):
        return f"[cost {self.cost:.2f}] {self.description}"


@dataclass(frozen=True)
class PolicyDeliveryGoal:
    """Symptom for the policy repairer: a packet should be forwarded.

    ``packet`` is a representative packet of the affected traffic;
    ``switch`` is where it enters; ``expected_port`` (optional) is the port
    it should leave from.
    """

    packet: Packet
    switch: int
    expected_port: Optional[int] = None
    in_port: Optional[int] = None


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

    def __init__(self, policy: Policy, max_candidates: int = 20):
        self.policy = policy
        self.max_candidates = max_candidates

    def repair_missing_delivery(self, goal: PolicyDeliveryGoal) -> List[PolicyRepair]:
        located = LocatedPacket(goal.packet, goal.switch, goal.in_port)
        candidates: List[PolicyRepair] = []
        self._repair_node(self.policy, (), located, goal, candidates)
        # "Manual" fix: add a parallel branch matching exactly this traffic.
        if goal.expected_port is not None:
            branch = Match(switch=goal.switch,
                           dst_port=goal.packet.dst_port)[Fwd(goal.expected_port)]
            candidates.append(PolicyRepair(
                description=f"add branch {branch.describe()}",
                cost=self.COSTS["add_branch"],
                policy=Parallel(self.policy.clone(), branch),
                kind="add_branch"))
        unique: Dict[str, PolicyRepair] = {}
        for candidate in candidates:
            key = candidate.description
            if key not in unique or candidate.cost < unique[key].cost:
                unique[key] = candidate
        # Stable: equal costs keep the order the walk proposed them in.
        ranked = sorted(unique.values(), key=lambda c: c.cost)
        return ranked[: self.max_candidates]

    # -- recursive tree walk -------------------------------------------------

    def _repair_node(self, node: Policy, path: Tuple[int, ...],
                     located: LocatedPacket, goal: PolicyDeliveryGoal,
                     out: List[PolicyRepair], reachable: bool = True):
        if isinstance(node, Restrict):
            predicate_holds = node.predicate.test(located)
            if not predicate_holds and self._could_forward(node.policy, goal):
                # Only restrictions guarding a branch that could forward the
                # affected traffic towards the goal are worth repairing.
                for name, value in sorted(node.predicate.fields.items()):
                    actual = located.field_value(name)
                    if actual == value:
                        continue
                    fixed_fields = dict(node.predicate.fields)
                    fixed_fields[name] = actual
                    repaired = Restrict(Match(**fixed_fields), node.policy.clone())
                    out.append(PolicyRepair(
                        description=(f"change match {name}={value!r} to "
                                     f"{name}={actual!r} in "
                                     f"{node.predicate.describe()}"),
                        cost=self.COSTS["change_match"],
                        policy=self._rebuild(path, repaired),
                        kind="change_match"))
                out.append(PolicyRepair(
                    description=f"delete restriction {node.predicate.describe()}",
                    cost=self.COSTS["delete_restriction"],
                    policy=self._rebuild(path, node.policy.clone()),
                    kind="delete_restriction"))
            self._repair_node(node.policy, path + (0,), located, goal, out,
                              reachable=reachable and predicate_holds)
            return
        if isinstance(node, Fwd) and reachable and goal.expected_port is not None \
                and node.port != goal.expected_port:
            out.append(PolicyRepair(
                description=f"change fwd({node.port}) to fwd({goal.expected_port})",
                cost=self.COSTS["change_port"],
                policy=self._rebuild(path, Fwd(goal.expected_port)),
                kind="change_port"))
        for index, child in enumerate(node.children()):
            self._repair_node(child, path + (index,), located, goal, out,
                              reachable=reachable)

    def _could_forward(self, node: Policy, goal: PolicyDeliveryGoal) -> bool:
        """True if the sub-policy contains a forwarding action that could
        satisfy the goal (the goal port, or any port when unspecified)."""
        if isinstance(node, Fwd):
            return goal.expected_port is None or node.port == goal.expected_port
        if isinstance(node, Flood):
            return True
        return any(self._could_forward(child, goal) for child in node.children())

    def _rebuild(self, path: Tuple[int, ...], replacement: Policy) -> Policy:
        """Return a copy of the full policy with the node at ``path`` replaced."""
        return _replace_at(self.policy, path, replacement)


def _replace_at(node: Policy, path: Tuple[int, ...], replacement: Policy) -> Policy:
    if not path:
        return replacement
    index = path[0]
    children = node.children()
    if index >= len(children):
        return node.clone()
    new_child = _replace_at(children[index], path[1:], replacement)
    return node.replace_child(index, new_child)
