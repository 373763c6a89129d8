"""Cascaded verifiable reward: syntax -> interface -> functional equivalence.

Stage 1 parses the candidate (truncated rollouts count as parse failures and
earn zero). Stage 2 scores module name and port agreement; a candidate that
matches every target port but adds outputs earns interface credit only.
Stage 3 runs only on an exact interface match and grades the fraction of
matching output bits against the task's packed expected outputs, with full
equivalence required for the maximal reward. The reward values are one
fixed schedule, which keeps near-misses strictly below the pass reward.

Every outcome is a shared frozen RewardBreakdown: a parse failure and a
pass are one constant each, and an interface-stage or near-miss outcome is
built once per distinct interface score or near-miss fraction, through a
bounded memo keyed on that float, and returned to every score that reaches
it. Equal verdicts are one object; no breakdown depends on what the memos
hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .minirtl import Interface, MiniRtlError, parse
from .minirtl.sim import equivalence_fraction
from .minirtl.vocab import DEFAULT_VOCAB, EOS

STAGE_PARSE_FAIL = "lex/parse-fail"
STAGE_INTERFACE = "interface"
STAGE_FUNCTIONAL = "functional"

_EOS = DEFAULT_VOCAB.id(EOS)
# An id set holding EOS alone: the trailing-EOS test is a set lookup, so a
# candidate element that is a numpy array is never asked for its truth
# value (it is unhashable, and parse reports it as a bad id).
_EOS_ONLY = frozenset((_EOS,))
# Distinct interface scores, and distinct near-miss fractions, whose shared
# breakdown each memo keeps, the least recently used dropped first: the
# 11,875 test candidates derived from the default corpus reach 24 distinct
# breakdowns, one pass of 45 RL steps' score calls 22.
_VERDICT_CACHE_SIZE = 4096


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


@lru_cache(maxsize=_VERDICT_CACHE_SIZE)
def _interface_outcome(s: float) -> RewardBreakdown:
    """The shared breakdown of a candidate that stops at the interface stage
    with interface score s. s is a float in [0, 1] (never -0.0), so equal
    keys are the same float and the memoized fields keep their bytes."""
    return RewardBreakdown(True, s, 0.0, False,
                           DEFAULT_SCHEDULE.interface_base
                           + DEFAULT_SCHEDULE.interface_span * s,
                           STAGE_INTERFACE)


@lru_cache(maxsize=_VERDICT_CACHE_SIZE)
def _near_miss_outcome(m: float) -> RewardBreakdown:
    """The shared breakdown of a near miss with matching-bit fraction m (a
    float in [0, 1)); its interface score is exactly 1.0, as every candidate
    that reaches simulation has."""
    return RewardBreakdown(True, 1.0, m, False,
                           DEFAULT_SCHEDULE.functional_base
                           + DEFAULT_SCHEDULE.functional_span * m,
                           STAGE_FUNCTIONAL)


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
    outside the vocabulary and elements that are no scalar id (a list, a
    numpy array) included, map to breakdown fields; nothing raises. Every
    outcome is a shared frozen breakdown: PARSE_FAIL_OUTCOME for a parse
    failure or a truncated candidate, PASS_OUTCOME for a pass, and one
    breakdown per distinct interface score or near-miss fraction, from a
    bounded memo, for the other two. An untruncated candidate is read once,
    as parse reads it, so any iterable of ids serves; a tuple is not copied.
    """
    if truncated:
        return PARSE_FAIL_OUTCOME
    candidate_tokens = tuple(candidate_tokens)
    try:
        if candidate_tokens and candidate_tokens[-1] in _EOS_ONLY:
            candidate_tokens = candidate_tokens[:-1]
    except TypeError:  # an unhashable last element: parse reports it
        pass
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
        return _interface_outcome(s)

    m, equivalent = equivalence_fraction(candidate, task.vectors,
                                         task.expected)
    if equivalent:
        return PASS_OUTCOME
    return _near_miss_outcome(m)
