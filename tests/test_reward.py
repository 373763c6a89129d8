"""Cascaded reward: stage values, interface scoring, near-miss grading.

Oracle values frozen from the fixed schedule's arithmetic:
wrong module name, all ports right: s = 0.75, R = 0.2 + 0.3*0.75 = 0.425;
one of three ports matched, right name: s = 0.25 + 0.75/3 = 0.5, R = 0.35;
near-miss m = 0.75: R = 0.5 + 0.4*0.75 = 0.8.
"""

import hashlib
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earl import reward as rew
from earl.minirtl import (DEFAULT_VOCAB, Interface, MiniRtlError, ModuleAst,
                          ParseError, PortDecl, build_vectors, parse,
                          simulate_packed, tokenize)
from earl.taskgen import CorpusConfig, build_corpus, generate_task


def _clear_verdict_memos():
    rew._interface_outcome.cache_clear()
    rew._near_miss_outcome.cache_clear()


def easy_task(seed=5):
    return generate_task(seed, "combinational", "easy", task_id="t")


def tokens_of(text):
    return tokenize(text)


def rename(text, new_name):
    task_name = text.split()[1]
    return text.replace(f"module {task_name} ", f"module {new_name} ", 1)


def test_reference_self_score_is_one():
    task = easy_task()
    bd = rew.score(tokens_of(task.reference_text), task)
    assert bd.reward == 1.0 and bd.functional_pass
    assert bd.stage_reached == rew.STAGE_FUNCTIONAL


def test_trailing_eos_is_stripped():
    task = easy_task()
    toks = tokens_of(task.reference_text) + [DEFAULT_VOCAB.id("EOS")]
    assert rew.score(toks, task).reward == 1.0


def test_any_container_of_the_same_ids_scores_the_same():
    # the candidate is read once, so an iterator serves as a list does
    task = easy_task()
    ref = tokens_of(task.reference_text)
    eos = DEFAULT_VOCAB.id("EOS")
    renamed = tokens_of(rename(task.reference_text, "and2"))
    stages = set()
    for toks in (ref, ref + [eos], renamed + [eos], ref[:5], [eos], []):
        want = rew.score(list(toks), task)
        stages.add(want.stage_reached)
        for container in (iter, tuple, np.array):
            assert rew.score(container(toks), task) == want, container
    assert stages == {rew.STAGE_FUNCTIONAL, rew.STAGE_INTERFACE,
                      rew.STAGE_PARSE_FAIL}


@pytest.mark.parametrize("bad", [-1, DEFAULT_VOCAB.size])
def test_out_of_range_id_scores_as_parse_fail(bad):
    task = easy_task()
    ref = tokens_of(task.reference_text)
    for toks in (ref + [bad], [bad] + ref[1:]):
        bd = rew.score(toks, task)
        assert bd == rew.RewardBreakdown(False, 0.0, 0.0, False, 0.0,
                                         rew.STAGE_PARSE_FAIL)


def test_breakdown_is_slotted_frozen_hashable_with_its_repr():
    """A breakdown has no per-instance __dict__; it stays frozen and
    hashable, and its repr, which the score benchmark's digest hashes, is
    the dataclass repr."""
    import dataclasses
    bd = rew.RewardBreakdown(True, 0.75, 0.5, False, 0.6,
                             rew.STAGE_FUNCTIONAL)
    assert not hasattr(bd, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        bd.reward = 1.0
    assert hash(bd) == hash(rew.RewardBreakdown(True, 0.75, 0.5, False, 0.6,
                                                rew.STAGE_FUNCTIONAL))
    assert repr(bd) == (
        "RewardBreakdown(syntax_ok=True, interface_score=0.75, "
        "functional_fraction=0.5, functional_pass=False, reward=0.6, "
        f"stage_reached={rew.STAGE_FUNCTIONAL!r})")


def test_parse_fail_scores_zero():
    task = easy_task()
    bd = rew.score(tokens_of("module and2 ( input a"), task)
    assert bd.reward == 0.0 and not bd.syntax_ok
    assert bd.stage_reached == rew.STAGE_PARSE_FAIL


def test_truncated_counts_as_parse_fail():
    task = easy_task()
    bd = rew.score(tokens_of(task.reference_text), task, truncated=True)
    assert bd.reward == 0.0 and bd.stage_reached == rew.STAGE_PARSE_FAIL


def test_wrong_name_gives_0_425():
    task = easy_task()
    other = "u00" if task.reference.interface.module_name != "u00" else "u01"
    bd = rew.score(tokens_of(rename(task.reference_text, other)), task)
    assert bd.syntax_ok and bd.interface_score == 0.75
    assert abs(bd.reward - 0.425) < 1e-12
    assert bd.stage_reached == rew.STAGE_INTERFACE


def test_one_of_three_ports_scores_0_35():
    # target has ports a, b (in), y (out); candidate keeps only a
    task = easy_task()
    name = task.reference.interface.module_name
    cand = (f"module {name} ( input a , output z ) ; "
            "assign z = a ; endmodule")
    bd = rew.score(tokens_of(cand), task)
    assert abs(bd.interface_score - (0.25 + 0.75 / 3)) < 1e-12
    assert abs(bd.reward - (0.2 + 0.3 * 0.5)) < 1e-12


def _oracle_interface_score(candidate, target):
    """interface_score as a set comprehension over the candidate's ports
    intersected with the target's (name, direction, width) keys."""
    name = 0.25 if candidate.module_name == target.module_name else 0.0
    cand = {(p.name, p.direction, p.width) for p in candidate.ports}
    matched = len(cand.intersection([(p.name, p.direction, p.width)
                                     for p in target.ports]))
    return name + 0.75 * matched / len(target.ports)


def test_interface_score_matches_the_set_formula(pinned_candidates):
    parsed = 0
    for task, tokens in pinned_candidates:
        try:
            cand = parse(tokens).interface
        except MiniRtlError:
            continue
        parsed += 1
        target = task.reference.interface
        assert (rew.interface_score(cand, target)
                == _oracle_interface_score(cand, target))
    assert parsed > 1500
    # hand-built interfaces: a port missing, an extra port, a port re-typed
    # in direction or width, another module name, nothing in common
    a, b, y = (PortDecl("a", "input", 1), PortDecl("b", "input", 2),
               PortDecl("y", "output", 2))
    target = Interface("and2", (a, b, y))
    z = PortDecl("z", "output", 1)
    for ports in [(a, b, y), (y, b, a), (a, y), (a, b, y, z),
                  (a, PortDecl("b", "output", 2), y),
                  (a, b, PortDecl("y", "output", 1)),
                  (PortDecl("c", "input", 1), PortDecl("q", "output", 4))]:
        for name in ("and2", "or2"):
            cand = Interface(name, ports)
            assert (rew.interface_score(cand, target)
                    == _oracle_interface_score(cand, target)), (name, ports)
    assert rew.interface_score(Interface("and2", (a, y)), target) == 0.75


def test_port_keys_are_in_neither_repr_nor_equality():
    # the output facts are built with the Interface, beside the check's
    # facts, not on first read; neither repr nor equality sees any of them
    ports = (PortDecl("a", "input", 1), PortDecl("y", "output", 3))
    iface, twin = Interface("and2", ports), Interface("and2", ports)
    facts = ("port_widths", "input_names", "port_error", "port_keys",
             "output_ports", "output_bits")
    assert set(facts) <= vars(iface).keys()
    assert iface.port_keys == {("a", "input", 1), ("y", "output", 3)}
    assert iface.output_ports == ports[1:] and iface.output_bits == 3
    assert repr(iface) == ("Interface(module_name='and2', ports=("
                           "PortDecl(name='a', direction='input', width=1), "
                           "PortDecl(name='y', direction='output', width=3)))")
    assert iface == twin and hash(iface) == hash(twin)
    assert {f.name for f in fields(Interface)} == {"module_name", "ports"}
    assert iface != Interface("and2", ports[:1])


def _oracle_score(tokens, task, truncated=False):
    """The cascade with every breakdown built afresh, over a copy of the
    candidate's AST that derives its own widths and output ports."""
    schedule = rew.DEFAULT_SCHEDULE
    fail = rew.RewardBreakdown(False, 0.0, 0.0, False, schedule.parse_fail,
                               rew.STAGE_PARSE_FAIL)
    tokens = list(tokens)
    if tokens and tokens[-1] == DEFAULT_VOCAB.id("EOS"):
        tokens.pop()
    try:
        if truncated:
            raise MiniRtlError
        parsed = parse(tokens)
    except MiniRtlError:
        return fail
    iface = Interface(parsed.interface.module_name, parsed.interface.ports)
    cand = ModuleAst(iface, parsed.declarations, parsed.assigns,
                     parsed.registers)
    target = task.reference.interface
    s = _oracle_interface_score(iface, target)
    outs = [p for p in iface.ports if p.direction == "output"]
    if s < 1.0 or (len(iface.ports) > len(target.ports) and len(outs) > len(
            [p for p in target.ports if p.direction == "output"])):
        return rew.RewardBreakdown(
            True, s, 0.0, False,
            schedule.interface_base + schedule.interface_span * s,
            rew.STAGE_INTERFACE)
    got = simulate_packed(cand, task.vectors)
    total = task.vectors.n_cycles * sum(p.width for p in outs)
    matching = total - sum((got[p.name] ^ task.expected[p.name]).bit_count()
                           for p in outs)
    m = matching / total
    if matching == total:
        return rew.RewardBreakdown(True, s, m, True, schedule.pass_reward,
                                   rew.STAGE_FUNCTIONAL)
    return rew.RewardBreakdown(
        True, s, m, False, schedule.functional_base
        + schedule.functional_span * m, rew.STAGE_FUNCTIONAL)


def test_every_breakdown_matches_the_cascade_built_afresh(pinned_candidates):
    """Over every pinned candidate, with and without a trailing EOS and
    truncated: score returns the breakdown the cascade builds afresh, field
    for field and type for type, so the shared outcomes keep every byte.
    The two fixed outcomes are the module's shared constants."""
    eos = DEFAULT_VOCAB.id("EOS")
    stages = set()
    for i, (task, tokens) in enumerate(pinned_candidates):
        cases = [(tokens, False), (tuple(tokens) + (eos,), False)]
        if i % 7 == 0:
            cases.append((tokens, True))
        for toks, truncated in cases:
            got = rew.score(toks, task, truncated=truncated)
            want = _oracle_score(toks, task, truncated)
            assert repr(got) == repr(want), (toks, truncated)
            assert [type(getattr(got, f.name)) for f in fields(got)] \
                == [type(getattr(want, f.name)) for f in fields(want)]
            stages.add((got.stage_reached, got.functional_pass))
            if got.stage_reached == rew.STAGE_PARSE_FAIL:
                assert got is rew.PARSE_FAIL_OUTCOME
            elif got.functional_pass:
                assert got is rew.PASS_OUTCOME
    assert len(stages) == 4  # parse fail, interface, near miss, pass
    assert rew.DEFAULT_SCHEDULE == rew.RewardSchedule()


def test_breakdowns_are_pinned(pinned_candidates):
    # with the verdict memos cleared, again warm, and again after a clear:
    # what the memos hold never changes a breakdown's bytes
    for clear in (True, False, True):
        if clear:
            _clear_verdict_memos()
        got = [rew.score(tokens, task) for task, tokens in pinned_candidates]
        assert Counter(bd.stage_reached for bd in got) == {
            rew.STAGE_PARSE_FAIL: 10346, rew.STAGE_INTERFACE: 365,
            rew.STAGE_FUNCTIONAL: 1164}
        digest = hashlib.sha256(
            "\n".join(map(repr, got)).encode()).hexdigest()
        assert digest == ("32a2bea65ad4ae4de677a84681ff9f79"
                          "06c8cb01e1d6d3ea533dd939d26d839c"), clear


def test_equal_verdicts_are_one_shared_object(pinned_candidates):
    """The pinned pool's 11,875 breakdowns are 24 distinct values and 24
    objects, whether the memos start cleared or warm, and every
    functional-stage breakdown has interface score exactly 1.0."""
    for clear in (True, False):
        if clear:
            _clear_verdict_memos()
        got = [rew.score(tokens, task) for task, tokens in pinned_candidates]
        assert len(set(got)) == len({id(bd) for bd in got}) == 24
        by_value = {}
        for bd in got:
            assert by_value.setdefault(bd, bd) is bd
        for bd in got:
            if bd.stage_reached == rew.STAGE_FUNCTIONAL:
                assert bd.interface_score == 1.0
                assert type(bd.interface_score) is float


def _formula(stage, s, m):
    """The breakdown of an interface-stage (m unused) or near-miss (s is
    1.0) outcome, built from the schedule's arithmetic."""
    schedule = rew.DEFAULT_SCHEDULE
    if stage == rew.STAGE_INTERFACE:
        return rew.RewardBreakdown(
            True, s, 0.0, False,
            schedule.interface_base + schedule.interface_span * s, stage)
    return rew.RewardBreakdown(
        True, 1.0, m, False,
        schedule.functional_base + schedule.functional_span * m, stage)


def _same_bytes(got, want):
    return all(repr(getattr(got, f.name)) == repr(getattr(want, f.name))
               and type(getattr(got, f.name)) is type(getattr(want, f.name))
               for f in fields(want))


_FRACTION = st.floats(0.0, 1.0)  # never -0.0 or NaN


@settings(max_examples=300, deadline=None)
@given(_FRACTION, _FRACTION)
def test_memoized_outcomes_equal_the_formula(s, m):
    for stage, memo, key in ((rew.STAGE_INTERFACE, rew._interface_outcome, s),
                             (rew.STAGE_FUNCTIONAL, rew._near_miss_outcome,
                              m)):
        got = memo(key)
        assert _same_bytes(got, _formula(stage, s, m))
        assert memo(key) is got
        # a float equal to the key, built afresh, finds the same breakdown
        assert memo(float(repr(key))) is got


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9), st.integers(0, 80),
       st.lists(st.tuples(st.integers(0, 80), st.sampled_from(
           sorted({t for c in (("&", "|", "^", "=="), ("0", "1", "2", "3"),
                               ("input", "output"), ("a", "b", "y", "z"))
                   for t in c}))), max_size=3))
def test_generated_candidates_score_as_the_cascade_built_afresh(
        seed, keep, edits):
    """A reference with some tokens swapped for operators, constants,
    directions or identifiers, cut after keep ids: score returns the breakdown the
    cascade builds afresh, and scoring it again returns the same object."""
    task = easy_task(seed)
    toks = tokens_of(task.reference_text)
    for i, name in edits:
        if i < len(toks):
            toks[i] = DEFAULT_VOCAB.id(name)
    toks = toks[:keep]
    got = rew.score(toks, task)
    assert _same_bytes(got, _oracle_score(toks, task))
    assert rew.score(tuple(toks), task) is got
    if got.stage_reached == rew.STAGE_FUNCTIONAL:
        assert got.interface_score == 1.0


def test_memos_are_bounded_and_clearing_one_changes_no_value(
        pinned_candidates):
    for memo in (rew._interface_outcome, rew._near_miss_outcome):
        assert memo.cache_info().maxsize == rew._VERDICT_CACHE_SIZE == 4096
        for i in range(rew._VERDICT_CACHE_SIZE + 100):
            memo(i / 8192)
        assert memo.cache_info().currsize == rew._VERDICT_CACHE_SIZE
    _clear_verdict_memos()
    want = [repr(rew.score(tokens, task))
            for task, tokens in pinned_candidates]
    half = len(pinned_candidates) // 2
    for memo in (rew._interface_outcome, rew._near_miss_outcome):
        got = []
        for i, (task, tokens) in enumerate(pinned_candidates):
            if i == half:
                memo.cache_clear()
            got.append(repr(rew.score(tokens, task)))
        assert got == want
        assert memo.cache_info().currsize > 0


def test_candidates_that_are_no_flat_id_sequence_score_as_parse_fail():
    """A nested list, a 2-D numpy array, a tuple holding a list and a last
    element that is a numpy array equal to EOS are parse failures, never an
    exception, and parse puts the error at the first element that is no
    scalar id."""
    task = easy_task()
    ref = tokens_of(task.reference_text)
    eos = DEFAULT_VOCAB.id("EOS")
    arr = np.array(ref)
    cases = [([[5]], 0), (arr.reshape(-1, 1), 0),
             (arr[:len(ref) // 2 * 2].reshape(2, -1), 0),
             (tuple(ref[:3]) + ([1],) + tuple(ref[4:]), 3),
             (tuple(ref) + ([1],), len(ref)),
             # an array's truth value is never taken: [EOS] is not stripped
             (ref + [np.array([eos])], len(ref)),
             (ref + [np.array([eos, eos])], len(ref)),
             ([ref[0], np.array([])], 1), ([np.int64(ref[0]), np.array(3)], 1)]
    for candidate, bad in cases:
        assert rew.score(candidate, task) is rew.PARSE_FAIL_OUTCOME
        with pytest.raises(ParseError) as e:
            parse(candidate)
        assert e.value.index == bad and e.value.expected == {
            f"<token id in [0, {DEFAULT_VOCAB.size})>"}
    # a scalar EOS in any numeric type is still stripped
    for end in (eos, np.int64(eos), float(eos)):
        assert rew.score(ref + [end], task) is rew.PASS_OUTCOME


def test_a_positional_schedule_is_a_type_error():
    """The schedule is fixed, and truncated is keyword-only: a schedule
    passed in the old third place cannot land in truncated."""
    task = easy_task()
    with pytest.raises(TypeError):
        rew.score(tokens_of(task.reference_text), task, rew.DEFAULT_SCHEDULE)


def test_near_miss_three_quarters_scores_0_8():
    ref_or = ("module and2 ( input a , input b , output y ) ; "
              "assign y = a | b ; endmodule")
    task = generate_task(0, "combinational", "easy", task_id="t")
    task.expected  # a cached trace must not carry over to the new reference
    # construct a task-like fixture with OR reference and exhaustive vectors
    ref = parse(tokenize(ref_or))
    fixed = replace(task, reference_text=ref_or, reference=ref,
                    vectors=build_vectors(ref))
    cand = ("module and2 ( input a , input b , output y ) ; "
            "assign y = a ^ b ; endmodule")
    bd = rew.score(tokens_of(cand), fixed)
    assert bd.functional_fraction == 0.75 and not bd.functional_pass
    assert abs(bd.reward - 0.8) < 1e-12
    assert bd.reward < 1.0


def test_extra_input_is_driven_to_zero():
    ref_and = ("module and2 ( input a , input b , output y ) ; "
               "assign y = a & b ; endmodule")
    ref = parse(tokenize(ref_and))
    task = replace(easy_task(), reference_text=ref_and, reference=ref,
                   vectors=build_vectors(ref))
    head = "module and2 ( input a , input b , input c , output y ) ; "
    bd = rew.score(tokens_of(head + "assign y = ( a & b ) | ( c & a ) ; "
                             "endmodule"), task)
    assert bd.interface_score == 1.0 and bd.functional_pass
    bd = rew.score(tokens_of(head + "assign y = ( a & b ) | ~ c ; endmodule"),
                   task)
    assert bd.stage_reached == rew.STAGE_FUNCTIONAL
    assert bd.functional_fraction == 0.25 and not bd.functional_pass
    assert abs(bd.reward - (0.5 + 0.4 * 0.25)) < 1e-12


def test_reference_is_simulated_once_per_task(monkeypatch):
    from earl import taskgen
    from earl.minirtl import sim
    calls = []
    simulate_packed = sim.simulate_packed

    def counting(*args):
        calls.append(args[0])
        return simulate_packed(*args)

    monkeypatch.setattr(sim, "simulate_packed", counting)
    monkeypatch.setattr(taskgen, "simulate_packed", counting)
    task = easy_task()
    calls.clear()  # generate_task's digest trace is set-up, not scoring
    name = task.reference.interface.module_name
    bodies = ["a & b", "a | b", "a ^ b", "~ a", "b"]
    for body in bodies:
        cand = (f"module {name} ( input a , input b , output y ) ; "
                f"assign y = {body} ; endmodule")
        bd = rew.score(tokens_of(cand), task)
        assert bd.stage_reached == rew.STAGE_FUNCTIONAL
    assert len(calls) == len(bodies) + 1
    assert sum(ast is task.reference for ast in calls) == 1


def test_extra_output_port_stays_at_interface_stage():
    task = easy_task()
    name = task.reference.interface.module_name
    ports = task.reference.interface.ports
    ins = " , ".join(f"input {p.name}" for p in ports if p.direction == "input")
    outs = " , ".join(f"output {p.name}" for p in ports
                      if p.direction == "output")
    cand = (f"module {name} ( {ins} , {outs} , output z ) ; "
            f"assign z = a ; "
            + task.reference_text.split(";", 1)[1])
    bd = rew.score(tokens_of(cand), task)
    assert bd.stage_reached == rew.STAGE_INTERFACE
    assert bd.reward == 0.5


def test_cascade_monotone_stage_values():
    """The fixed schedule keeps the stages in order: parse-fail <
    interface-partial <= interface-full <= near-miss < pass."""
    s = rew.DEFAULT_SCHEDULE
    assert min(s.interface_span, s.functional_span) >= 0.0
    assert 0.0 <= s.parse_fail < s.interface_base
    assert s.interface_base + s.interface_span <= s.functional_base
    assert s.functional_base < s.pass_reward
    assert s.functional_base + s.functional_span <= s.pass_reward


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_candidates_never_exceed_stage_bounds(seed):
    rng = np.random.default_rng(seed)
    task = easy_task(int(rng.integers(1000)))
    n = int(rng.integers(1, 40))
    toks = [int(x) for x in rng.integers(0, DEFAULT_VOCAB.size, n)]
    bd = rew.score(toks, task)
    assert 0.0 <= bd.reward <= 1.0
    if bd.stage_reached == rew.STAGE_PARSE_FAIL:
        assert bd.reward == 0.0
    elif bd.stage_reached == rew.STAGE_INTERFACE:
        assert bd.reward <= 0.5
    if bd.reward == 1.0:
        assert bd.functional_pass


_SIZE = DEFAULT_VOCAB.size
# any vocabulary id (terminals, PAD/BOS/EOS, prompt markers) or just outside
_ANY_ID = st.integers(-3, _SIZE + 2)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 9), st.integers(0, 80),
       st.lists(st.tuples(st.integers(0, 80), _ANY_ID), max_size=3),
       st.lists(_ANY_ID, max_size=6))
def test_any_id_sequence_parses_or_fails_cleanly(seed, keep, edits, tail):
    """A reference prefix with some ids replaced and arbitrary ids after it:
    parse raises nothing but MiniRtlError, score raises nothing, and the
    reward lies in the interval of the stage it reached."""
    task = easy_task(seed)
    toks = tokens_of(task.reference_text)[:keep]
    for i, t in edits:
        if i < len(toks):
            toks[i] = t
    toks += tail
    try:
        parse(toks)
    except MiniRtlError:
        pass
    bd = rew.score(toks, task)
    s = rew.DEFAULT_SCHEDULE
    if bd.stage_reached == rew.STAGE_PARSE_FAIL:
        assert bd.reward == s.parse_fail and not bd.syntax_ok
    elif bd.stage_reached == rew.STAGE_INTERFACE:
        assert (s.interface_base <= bd.reward
                <= s.interface_base + s.interface_span)
    elif bd.functional_pass:
        assert bd.reward == s.pass_reward
    else:
        assert (s.functional_base <= bd.reward
                <= s.functional_base + s.functional_span)
