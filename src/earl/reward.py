"""Cascaded verifiable reward: syntax -> interface -> functional equivalence.

Stage 1 parses the candidate (truncated rollouts count as parse failures and
earn zero). Stage 2 scores module name and port agreement; a candidate that
matches every target port but adds outputs earns interface credit only.
Stage 3 runs only on an exact interface match and grades the fraction of
matching output bits against the task's packed expected outputs, with full
equivalence required for the maximal reward. The numeric schedule keeps
near-misses strictly below the pass reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .minirtl import Interface, MiniRtlError, parse
from .minirtl.sim import equivalence_fraction
from .minirtl.vocab import DEFAULT_VOCAB, EOS

STAGE_PARSE_FAIL = "lex/parse-fail"
STAGE_INTERFACE = "interface"
STAGE_FUNCTIONAL = "functional"

_EOS = DEFAULT_VOCAB.id(EOS)


@dataclass(frozen=True)
class RewardSchedule:
    """Reward values; the ordering contract is parse-fail < interface-partial
    <= interface-full <= near-miss < pass. validate() enforces it: both
    spans >= 0, 0 <= parse_fail < interface_base, interface_base +
    interface_span <= functional_base < pass_reward and functional_base +
    functional_span <= pass_reward. Overridable via configuration."""
    parse_fail: float = 0.0
    interface_base: float = 0.2
    interface_span: float = 0.3
    functional_base: float = 0.5
    functional_span: float = 0.4
    pass_reward: float = 1.0

    def validate(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"reward.{f.name}: must be finite")
        ok = (0.0 <= self.parse_fail < self.interface_base
              and min(self.interface_span, self.functional_span) >= 0.0
              and self.interface_base + self.interface_span
              <= self.functional_base < self.pass_reward
              and self.functional_base + self.functional_span
              <= self.pass_reward)
        if not ok:
            raise ConfigError("reward schedule violates stage ordering")


DEFAULT_SCHEDULE = RewardSchedule()


@dataclass(frozen=True, slots=True)
class RewardBreakdown:
    syntax_ok: bool
    interface_score: float
    functional_fraction: float
    functional_pass: bool
    reward: float
    stage_reached: str


def interface_score(candidate: Interface, target: Interface) -> float:
    """0.25 for the module name plus 0.75 times the fraction of target ports
    matched on (name, direction, width). Extra candidate ports earn nothing
    but cost nothing. Port names are unique within a parsed interface, so
    the shared keys (Interface.port_keys, cached on each interface, which
    parse shares per distinct header) count the matched ports."""
    name = 0.25 if candidate.module_name == target.module_name else 0.0
    matched = len(candidate.port_keys & target.port_keys)
    return name + 0.75 * matched / len(target.ports)


def score(candidate_tokens, task, schedule: RewardSchedule = DEFAULT_SCHEDULE,
          truncated: bool = False) -> RewardBreakdown:
    """Run the cascade on a candidate token sequence for a task.

    A trailing EOS is stripped before parsing. All failure modes, ids
    outside the vocabulary included, map to breakdown fields; nothing raises.
    """
    if truncated:
        return RewardBreakdown(False, 0.0, 0.0, False, schedule.parse_fail,
                               STAGE_PARSE_FAIL)
    tokens = list(candidate_tokens)
    if tokens and tokens[-1] == _EOS:
        tokens.pop()
    try:
        candidate = parse(tokens)
    except MiniRtlError:
        return RewardBreakdown(False, 0.0, 0.0, False, schedule.parse_fail,
                               STAGE_PARSE_FAIL)

    target = task.reference.interface
    s = interface_score(candidate.interface, target)
    # At s == 1.0 every target port is present and port names are unique, so
    # only a candidate with more ports than the target can have extra
    # outputs, and it has them when it has more outputs than the target.
    iface = candidate.interface
    if s < 1.0 or (len(iface.ports) > len(target.ports)
                   and len(iface.outputs()) > len(target.outputs())):
        reward = schedule.interface_base + schedule.interface_span * s
        return RewardBreakdown(True, s, 0.0, False, reward, STAGE_INTERFACE)

    m, equivalent = equivalence_fraction(candidate, task.vectors,
                                         task.expected)
    if equivalent:
        return RewardBreakdown(True, s, m, True, schedule.pass_reward,
                               STAGE_FUNCTIONAL)
    reward = schedule.functional_base + schedule.functional_span * m
    return RewardBreakdown(True, s, m, False, reward, STAGE_FUNCTIONAL)
