"""Cascaded verifiable reward: syntax -> interface -> functional equivalence.

Stage 1 parses the candidate (truncated rollouts count as parse failures and
earn zero). Stage 2 scores module name and port agreement; a candidate that
matches every target port but adds outputs earns interface credit only.
Stage 3 runs only on an exact interface match and grades the fraction of
matching output bits against the task's packed expected outputs, with full
equivalence required for the maximal reward. The reward values are one
fixed schedule, which keeps near-misses strictly below the pass reward.
"""

from __future__ import annotations

from dataclasses import dataclass

from .minirtl import Interface, MiniRtlError, parse
from .minirtl.sim import equivalence_fraction
from .minirtl.vocab import DEFAULT_VOCAB, EOS

STAGE_PARSE_FAIL = "lex/parse-fail"
STAGE_INTERFACE = "interface"
STAGE_FUNCTIONAL = "functional"

_EOS = DEFAULT_VOCAB.id(EOS)


@dataclass(frozen=True)
class RewardSchedule:
    """The cascade's reward values, fixed as DEFAULT_SCHEDULE. They keep the
    stages in order (parse-fail < interface-partial <= interface-full <=
    near-miss < pass): both spans >= 0, 0 <= parse_fail < interface_base,
    interface_base + interface_span <= functional_base < pass_reward and
    functional_base + functional_span <= pass_reward."""
    parse_fail: float = 0.0
    interface_base: float = 0.2
    interface_span: float = 0.3
    functional_base: float = 0.5
    functional_span: float = 0.4
    pass_reward: float = 1.0


DEFAULT_SCHEDULE = RewardSchedule()


@dataclass(frozen=True, slots=True)
class RewardBreakdown:
    syntax_ok: bool
    interface_score: float
    functional_fraction: float
    functional_pass: bool
    reward: float
    stage_reached: str


# The two outcomes that do not depend on the candidate, one frozen breakdown
# each that every score reaching it returns: a truncated candidate or one
# that does not parse, and a pass (every target port matched, so interface
# score 0.25 + 0.75 * 1.0, exactly 1.0, and every output bit equal).
PARSE_FAIL_OUTCOME = RewardBreakdown(False, 0.0, 0.0, False,
                                     DEFAULT_SCHEDULE.parse_fail,
                                     STAGE_PARSE_FAIL)
PASS_OUTCOME = RewardBreakdown(True, 1.0, 1.0, True,
                               DEFAULT_SCHEDULE.pass_reward, STAGE_FUNCTIONAL)


def interface_score(candidate: Interface, target: Interface) -> float:
    """0.25 for the module name plus 0.75 times the fraction of target ports
    matched on (name, direction, width). Extra candidate ports earn nothing
    but cost nothing. Port names are unique within a parsed interface, so
    the shared keys (Interface.port_keys, cached on each interface, which
    parse shares per distinct header) count the matched ports."""
    name = 0.25 if candidate.module_name == target.module_name else 0.0
    matched = len(candidate.port_keys & target.port_keys)
    return name + 0.75 * matched / len(target.ports)


def score(candidate_tokens, task, *, truncated: bool = False
          ) -> RewardBreakdown:
    """Run the cascade on a candidate token sequence for a task.

    A trailing EOS is stripped before parsing. All failure modes, ids
    outside the vocabulary included, map to breakdown fields; nothing raises.
    A parse failure, a truncated candidate and a pass return the shared
    breakdown of that outcome (PARSE_FAIL_OUTCOME, PASS_OUTCOME). An
    untruncated candidate is read once, as parse reads it, so any iterable
    of ids serves; a tuple is not copied.
    """
    if truncated:
        return PARSE_FAIL_OUTCOME
    candidate_tokens = tuple(candidate_tokens)
    if candidate_tokens and candidate_tokens[-1] == _EOS:
        candidate_tokens = candidate_tokens[:-1]
    try:
        candidate = parse(candidate_tokens)
    except MiniRtlError:
        return PARSE_FAIL_OUTCOME

    target = task.reference.interface
    s = interface_score(candidate.interface, target)
    # At s == 1.0 every target port is present and port names are unique, so
    # only a candidate with more ports than the target can have extra
    # outputs, and it has them when it has more outputs than the target.
    iface = candidate.interface
    if s < 1.0 or (len(iface.ports) > len(target.ports)
                   and len(iface.output_ports) > len(target.output_ports)):
        reward = (DEFAULT_SCHEDULE.interface_base
                  + DEFAULT_SCHEDULE.interface_span * s)
        return RewardBreakdown(True, s, 0.0, False, reward, STAGE_INTERFACE)

    m, equivalent = equivalence_fraction(candidate, task.vectors,
                                         task.expected)
    if equivalent:
        return PASS_OUTCOME
    reward = (DEFAULT_SCHEDULE.functional_base
              + DEFAULT_SCHEDULE.functional_span * m)
    return RewardBreakdown(True, s, m, False, reward, STAGE_FUNCTIONAL)
