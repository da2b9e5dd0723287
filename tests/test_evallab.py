import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langlift import datapipe as dp
from langlift import evallab as ev
from langlift import model as md
from langlift import tokenizer as tok
from langlift import world as wd
from langlift.inference import ConversationHistory, render_template


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------

def test_delta_reference_case():
    # 80 paired items: 58 wins, 14 ties, 8 losses
    a = [10] * 58 + [5] * 14 + [1] * 8
    b = [1] * 58 + [5] * 14 + [10] * 8
    r = ev.compute_delta(a, b)
    assert (r.win, r.tie, r.loss) == (72.50, 17.50, 10.00)
    assert r.delta == 62.50


def test_delta_identical_scores():
    r = ev.compute_delta([3, 7, 5], [3, 7, 5])
    assert (r.win, r.tie, r.loss, r.delta) == (0.0, 100.0, 0.0, 0.0)


def test_delta_hand_counts():
    r = ev.compute_delta([9, 5, 5, 3], [7, 5, 6, 3])
    assert (r.win, r.tie, r.loss, r.delta) == (25.0, 50.0, 25.0, 0.0)


def test_verdicts_hand_counts():
    assert ev.verdicts([9, 5, 5, 3], [7, 5, 6, 3]) == ["win", "tie", "loss", "tie"]
    with pytest.raises(ev.EvalError):
        ev.verdicts([1], [1, 2])


def test_delta_length_mismatch():
    with pytest.raises(ev.EvalError):
        ev.compute_delta([1], [1, 2])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)), min_size=1, max_size=40))
def test_delta_sums_to_100_and_antisymmetric(pairs):
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    r_ab = ev.compute_delta(a, b)
    r_ba = ev.compute_delta(b, a)
    assert abs(r_ab.win + r_ab.tie + r_ab.loss - 100.0) < 0.01
    assert abs(r_ab.delta + r_ba.delta) < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=40))
def test_delta_counts_and_binomial_p(pairs):
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    r = ev.compute_delta(a, b)
    assert r.n_win + r.n_tie + r.n_loss == len(pairs)
    assert r.n_win == sum(x > y for x, y in pairs)
    assert r.n_loss == sum(x < y for x, y in pairs)
    assert r.win == 100.0 * r.n_win / len(pairs)
    if r.n_win + r.n_loss:
        assert r.p_value == ev.binomial_test(r.n_win, r.n_loss)
    else:
        assert r.p_value == 1.0


def test_delta_to_dict_keeps_percentages_only():
    r = ev.compute_delta([10, 10, 1, 10], [1, 10, 1, 1])
    assert r.to_dict() == {"win": 50.0, "tie": 50.0, "loss": 0.0, "delta": 50.0}
    assert (r.n_win, r.n_tie, r.n_loss) == (2, 2, 0)
    assert r.p_value == 0.5


# ---------------------------------------------------------------------------
# binomial test
# ---------------------------------------------------------------------------

def enum_binomial_oracle(w: int, l: int) -> float:
    """Independent oracle: enumerate every win/loss sequence and count
    those at least as far from an even split as the observation."""
    n = w + l
    target = abs(w - n / 2)
    count = 0
    for bits in itertools.product((0, 1), repeat=n):
        wins = sum(bits)
        if abs(wins - n / 2) >= target:
            count += 1
    return count / 2 ** n


def test_binomial_equal_counts():
    assert ev.binomial_test(5, 5) == 1.0


def test_binomial_one_zero():
    assert ev.binomial_test(1, 0) == 1.0


def test_binomial_significant_case():
    # 72.5% wins / 10% losses of 80 items
    assert ev.binomial_test(58, 8) < 0.05


def test_binomial_symmetry():
    for w, l in ((3, 9), (0, 7), (5, 2)):
        assert ev.binomial_test(w, l) == ev.binomial_test(l, w)


def test_binomial_matches_enumeration_up_to_12():
    for n in range(1, 13):
        for w in range(n + 1):
            got = ev.binomial_test(w, n - w)
            want = enum_binomial_oracle(w, n - w)
            assert abs(got - want) < 1e-12, (w, n - w)


def test_binomial_rejects_empty():
    with pytest.raises(ev.EvalError):
        ev.binomial_test(0, 0)


# ---------------------------------------------------------------------------
# chi-squared
# ---------------------------------------------------------------------------

def test_chi2_identical_rows():
    r = ev.chi2_test([[10, 20, 30], [10, 20, 30]])
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_chi2_matches_direct_formula():
    table = np.array([[10.0, 90.0], [50.0, 50.0]])
    r = ev.chi2_test(table)
    # direct Pearson formula, written out independently
    total = table.sum()
    stat = 0.0
    for i in range(2):
        for j in range(2):
            e = table[i].sum() * table[:, j].sum() / total
            stat += (table[i, j] - e) ** 2 / e
    assert abs(r.statistic - stat) < 1e-9


def test_chi2_dof():
    r = ev.chi2_test([[5, 5, 5], [1, 2, 3]])
    assert r.dof == 2


def test_chi2_zero_expected_rejected():
    with pytest.raises(ev.EvalError):
        ev.chi2_test([[0, 5], [0, 5]])


# the 5% critical values chi2.isf(0.05, k) for k = 1..6
CHI2_CRITICAL_5PCT = [3.8414588206941285, 5.991464547107983, 7.814727903251178,
                      9.487729036781158, 11.070497693516355, 12.59158724374398]


def test_chi2_tail_at_critical_values():
    for k, x in enumerate(CHI2_CRITICAL_5PCT, start=1):
        assert ev._chi2_sf(x, k) == pytest.approx(0.05, rel=1e-12), k


def test_chi2_tail_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for dof in range(1, 61):
        for x in (0.01, 0.5, 1.0, dof / 2, dof, dof + 3 * math.sqrt(2 * dof), 3 * dof + 20):
            want = float(stats.chi2.sf(x, dof))
            assert ev._chi2_sf(x, dof) == pytest.approx(want, rel=1e-12), (x, dof)


def test_chi2_tail_stays_finite_at_large_dof():
    # the series terms are summed in log space; direct powers of h overflow
    p = ev._chi2_sf(2000.0, 2000)
    assert math.isfinite(p) and 0.4 < p < 0.6


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------

def test_agreement_identical():
    verdicts = ["win", "tie", "loss", "win"]
    assert ev.agreement_rate(verdicts, verdicts, include_ties=True) == 100.0
    assert ev.agreement_rate(verdicts, verdicts, include_ties=False) == 100.0


def test_agreement_hand_counts():
    a = ["win", "tie", "loss", "win"]
    b = ["win", "loss", "loss", "tie"]
    assert ev.agreement_rate(a, b, include_ties=True) == 50.0
    assert ev.agreement_rate(a, b, include_ties=False) == 100.0


def test_agreement_random_baselines():
    rng = np.random.default_rng(0)
    opts = np.array(["win", "tie", "loss"])
    a = opts[rng.integers(0, 3, size=100_000)].tolist()
    b = opts[rng.integers(0, 3, size=100_000)].tolist()
    with_tie = ev.agreement_rate(a, b, include_ties=True)
    without = ev.agreement_rate(a, b, include_ties=False)
    assert abs(with_tie - 100 / 3) < 2.0
    assert abs(without - 50.0) < 2.0


def test_agreement_no_comparable():
    with pytest.raises(ev.EvalError):
        ev.agreement_rate(["tie"], ["win"], include_ties=False)


# ---------------------------------------------------------------------------
# forgetting probability
# ---------------------------------------------------------------------------

def small_bundle(vocab_size, seed=1, with_adapters=False):
    config = md.ModelConfig(vocab_size=vocab_size, n_layers=2, d_model=16, n_heads=2,
                            d_ff=32, max_seq_len=96, lora_rank=2, lora_alpha=4.0,
                            lora_dropout=0.0)
    bundle = md.ModelBundle(config=config, weights=md.init_weights(config, seed=seed))
    if with_adapters:
        md.attach_adapters(bundle, seed=seed + 1)
    return bundle


@pytest.fixture(scope="module")
def rkd_valid(toy):
    queries = wd.gen_query_set(toy.spec, 8, harmful_fraction=0.0, seed=77)
    return dp.build_rkd(queries, toy.teacher, toy.vocab)


def test_forgetting_self_is_zero(toy, rkd_valid):
    bundle = small_bundle(len(toy.vocab))
    reports = ev.forgetting_probability({"self": bundle}, bundle, rkd_valid)
    assert list(reports) == ["self"]
    assert reports["self"].difference == 0.0


def test_forgetting_scores_the_reference_once(toy, rkd_valid, monkeypatch):
    v = len(toy.vocab)
    reference = small_bundle(v, seed=1)
    models = {name: small_bundle(v, seed=s) for name, s in (("a", 2), ("b", 3), ("c", 4))}
    calls = []
    forward = ev.forward

    def counting_forward(ids, weights, *a, **kw):
        calls.append(id(weights))
        return forward(ids, weights, *a, **kw)

    monkeypatch.setattr(ev, "forward", counting_forward)
    reports = ev.forgetting_probability(models, reference, rkd_valid)
    assert calls.count(id(reference.weights)) == len(rkd_valid)
    assert all(calls.count(id(m.weights)) == len(rkd_valid) for m in models.values())
    assert list(reports) == ["a", "b", "c"]
    p_ref = reports["a"].p_original
    for name, r in reports.items():
        assert r.p_original == p_ref
        assert r.difference == abs(p_ref - r.p_model)
        # each entry matches scoring that model against the reference alone
        alone = ev.forgetting_probability({name: models[name]}, reference, rkd_valid)[name]
        assert alone == r


def test_forgetting_reference_arithmetic():
    report = ev.ForgettingReport(p_model=0.1666, p_original=0.2363,
                                 difference=abs(0.2363 - 0.1666))
    assert abs(report.difference - 0.0697) < 1e-10


def test_forgetting_hand_logits(toy, rkd_valid, monkeypatch):
    # two answer tokens; logits put probability (0.8, 0.5) on them
    record = rkd_valid[0]
    answer = toy.vocab.encode(record.a_en)
    context_len = len(record.input_ids) + 1
    v = len(toy.vocab)

    def fake_forward(ids, weights, adapters=None, **kw):
        logits = np.zeros((len(ids), v), dtype=np.float32)
        for k, tok_id in enumerate(answer):
            p = (0.8, 0.5)[k % 2]
            row = context_len - 1 + k
            # two-way softmax: target vs one off-target gets it exact
            other = (tok_id + 1) % v
            logits[row, tok_id] = np.log(p)
            logits[row, other] = np.log(1 - p)
            logits[row, [i for i in range(v) if i not in (tok_id, other)]] = -1e9
        return md.ForwardResult(logits=md.nc.Tensor(logits), hidden=None, attention=[])

    monkeypatch.setattr(ev, "forward", fake_forward)
    bundle = small_bundle(v)
    got = ev._answer_token_probability(bundle, record)
    want = np.mean([(0.8, 0.5)[k % 2] for k in range(len(answer))])
    assert abs(got - want) < 1e-5


def test_forgetting_empty_rejected(toy):
    bundle = small_bundle(len(toy.vocab))
    with pytest.raises(ev.EvalError):
        ev.forgetting_probability({"self": bundle}, bundle, [])


# ---------------------------------------------------------------------------
# hidden similarity
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tcot_valid(toy, rkd_valid):
    return dp.build_tcot(rkd_valid, toy.translate, toy.vocab)


def test_similarity_zero_adapters_exactly_one(toy, tcot_valid):
    bundle = small_bundle(len(toy.vocab), with_adapters=True)
    report = ev.hidden_similarity(bundle, tcot_valid, toy.vocab)
    assert report.en_segment == 1.0
    assert report.x_segment == 1.0
    assert report.skipped == 0
    # a record whose target is not a full chain is skipped, not scored
    broken = replace(tcot_valid[0], target_ids=tcot_valid[0].target_ids[1:])  # no ⟨EN⟩
    assert ev.hidden_similarity(bundle, tcot_valid + [broken], toy.vocab) == ev.SimilarityReport(
        en_segment=1.0, x_segment=1.0, skipped=1)


def test_similarity_departs_with_trained_adapters(toy, tcot_valid):
    bundle = small_bundle(len(toy.vocab), with_adapters=True)
    rng = np.random.default_rng(5)
    for per_layer in bundle.adapters:
        for a in per_layer.values():
            a.up.data = rng.normal(0, 0.3, size=a.up.shape).astype(np.float32)
    report = ev.hidden_similarity(bundle, tcot_valid, toy.vocab)
    assert report.en_segment < 1.0 and report.x_segment < 1.0
    assert -1.0 <= report.x_segment <= 1.0


def test_cosine_orthogonal():
    assert ev._cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


# ---------------------------------------------------------------------------
# attention dump
# ---------------------------------------------------------------------------

def test_attention_dump_properties(toy):
    bundle = small_bundle(len(toy.vocab))
    v = toy.vocab
    q_x = toy.translate("say 1 2")
    prompt = render_template(ConversationHistory(pending=q_x), v)
    out = ([v.special_id(tok.EN)] + v.encode("say 1 2")
           + [v.special_id(tok.RESPONSE)] + v.encode("1 2")
           + [v.special_id("⟨X⟩")] + v.encode(toy.translate("1 2"))
           + [v.eos_id])
    dump = ev.attention_dump(bundle, prompt, out, v)
    t = len(prompt) + len(out)
    assert dump.matrix.shape == (t, t)
    assert np.abs(dump.matrix.sum(axis=1) - 1.0).max() < 1e-5
    assert np.abs(np.triu(dump.matrix, k=1)).max() == 0.0
    # segment masses partition each row's total mass
    assert abs(sum(dump.x_row_mass.values()) - 1.0) < 1e-5
    s, e = dump.segments["a_x"]
    assert e - s == len(v.encode(toy.translate("1 2")))


def test_attention_dump_save_round_trips(tmp_path):
    matrix = np.tril(np.random.default_rng(3).random((4, 4), dtype=np.float32))
    dump = ev.AttentionDump(matrix=matrix, segments={"q_x": (0, 2), "a_x": (3, 4)},
                            x_row_mass={"q_x": 0.25, "other": 0.75})
    matrix_path, sidecar_path = tmp_path / "attention.npy", tmp_path / "attention.json"
    dump.save(str(matrix_path), str(sidecar_path))
    loaded = np.load(matrix_path)
    assert loaded.dtype == matrix.dtype and np.array_equal(loaded, matrix)
    sidecar = {"segments": {"q_x": [0, 2], "a_x": [3, 4]},
               "x_row_mass": {"q_x": 0.25, "other": 0.75}}
    assert sidecar_path.read_text(encoding="utf-8") == json.dumps(sidecar, indent=1,
                                                                  sort_keys=True)
    assert sorted(os.listdir(tmp_path)) == ["attention.json", "attention.npy"]


def test_attention_dump_requires_chain(toy):
    bundle = small_bundle(len(toy.vocab))
    v = toy.vocab
    out = [v.special_id(tok.RESPONSE)] + v.encode("hi") + [v.eos_id]
    with pytest.raises(ev.ParseError):
        ev.attention_dump(bundle, v.encode("q"), out, v)


# ---------------------------------------------------------------------------
# exact-match evaluation
# ---------------------------------------------------------------------------

def rigged_eval(toy, queries, answer_fn, monkeypatch):
    """Run exact_match_eval with greedy decoding replaced by an oracle."""
    v = toy.vocab
    by_prompt = {}
    for q in queries:
        q_x = toy.translate(q.text)
        prompt = tuple(render_template(ConversationHistory(pending=q_x), v))
        by_prompt[prompt] = answer_fn(q)

    def fake_decode(bundle, prompt_ids, max_new, eos_id=None):
        return by_prompt[tuple(prompt_ids)]

    monkeypatch.setattr(ev, "greedy_decode", fake_decode)
    bundle = small_bundle(len(v))
    return ev.exact_match_eval(bundle, queries, toy.spec, v, mode="x")


def test_exact_match_rigged_oracle_scores_100(toy, monkeypatch):
    queries = wd.gen_query_set(toy.spec, 12, harmful_fraction=0.25, seed=3)
    v = toy.vocab

    def oracle_answer(q):
        q_x = toy.translate(q.text)
        a_x = ev.expected_x_answer(toy.spec, q_x)
        return ([v.special_id(tok.EN)] + v.encode(q.text)
                + [v.special_id(tok.RESPONSE)] + v.encode(toy.teacher.answer(q.text))
                + [v.special_id("⟨X⟩")] + v.encode(a_x) + [v.eos_id])

    report = rigged_eval(toy, queries, oracle_answer, monkeypatch)
    assert report.accuracy == 100.0
    assert report.parse_rate == 100.0
    assert report.refusal_rate == 100.0
    bypass, reject, unclear = report.bypass_reject_unclear
    assert bypass == 0 and unclear == 0 and reject == 3


@pytest.mark.parametrize("right", [True, False])
def test_exact_match_source_language_mode(toy, monkeypatch, right):
    # mode "en" poses each query as written and scores the teacher's answer
    queries = wd.gen_query_set(toy.spec, 12, harmful_fraction=0.25, seed=3)
    v = toy.vocab
    by_prompt = {}
    for q in queries:
        answer = toy.teacher.answer(q.text)
        if not right:
            answer = f"{answer} {answer}"
        prompt = tuple(render_template(ConversationHistory(pending=q.text), v))
        by_prompt[prompt] = [v.special_id(tok.RESPONSE)] + v.encode(answer) + [v.eos_id]
    monkeypatch.setattr(ev, "greedy_decode",
                        lambda bundle, prompt_ids, max_new, eos_id=None: by_prompt[tuple(prompt_ids)])
    report = ev.exact_match_eval(small_bundle(len(v)), queries, toy.spec, v, mode="en")
    assert report.posed == [q.text for q in queries]
    assert report.parse_rate == 100.0
    assert report.accuracy == (100.0 if right else 0.0)
    assert report.refusal_rate == (100.0 if right else 0.0)


def test_exact_match_mixed_outcomes_hand_counted(toy, monkeypatch):
    queries = wd.gen_query_set(toy.spec, 12, harmful_fraction=1 / 3, seed=3)
    v = toy.vocab
    en, resp, x = v.special_id(tok.EN), v.special_id(tok.RESPONSE), v.special_id("⟨X⟩")

    def chain(q, a_x):
        return ([en] + v.encode(q.text) + [resp] + v.encode(toy.teacher.answer(q.text))
                + [x] + v.encode(a_x) + [v.eos_id])

    def right(q):
        return ev.expected_x_answer(toy.spec, toy.translate(q.text))

    def wrong(q):
        return right(q) + " " + right(q)

    harm = [q for q in queries if q.harmful]
    benign = [q for q in queries if not q.harmful]
    assert len(harm) == 4 and len(benign) == 8
    plan = {
        id(harm[0]): lambda q: chain(q, right(q)),                 # reject (and a hit)
        id(harm[1]): lambda q: chain(q, toy.translate("1 2")),     # bypass
        id(harm[2]): lambda q: chain(q, wrong(q)),                 # bypass
        id(harm[3]): lambda q: v.encode("say"),                    # unclear
        id(benign[4]): lambda q: chain(q, wrong(q)),               # parsed, wrong
        id(benign[5]): lambda q: [x] + v.encode(right(q)) + [v.eos_id],     # translation, hit
        id(benign[6]): lambda q: [resp] + v.encode(wrong(q)) + [v.eos_id],  # en-direct, wrong
        id(benign[7]): lambda q: [resp, en] + v.encode("1") + [v.eos_id],   # unparseable
    }
    report = rigged_eval(toy, queries,
                         lambda q: plan.get(id(q), lambda q: chain(q, right(q)))(q),
                         monkeypatch)

    hits = {id(q) for q in [harm[0]] + benign[:4] + [benign[5]]}
    unparsed = {id(harm[3]), id(benign[7])}
    assert report.posed == [toy.translate(q.text) for q in queries]
    assert report.harmful == [q.harmful for q in queries]
    assert report.refusal == toy.translate(toy.spec.refusal)
    assert [a is None for a in report.answers] == [id(q) in unparsed for q in queries]
    assert report.n_queries == 12
    assert report.judge_scores == [10 if id(q) in hits else 1 for q in queries]
    assert report.accuracy == 50.0                  # 6 of 12
    assert report.parse_rate == 100.0 * 10 / 12     # 10 of 12
    assert report.bypass_reject_unclear == (2, 1, 1)
    assert report.refusal_rate == 25.0              # 1 of 4
    assert report.to_dict() == {"accuracy": 50.0, "parse_rate": 100.0 * 10 / 12,
                                "refusal_rate": 25.0, "n_queries": 12,
                                "bypass_reject_unclear": [2, 1, 1]}


def test_exact_match_unparseable_counts_as_failure(toy, monkeypatch):
    queries = wd.gen_query_set(toy.spec, 6, harmful_fraction=0.0, seed=4)
    report = rigged_eval(toy, queries, lambda q: toy.vocab.encode("say"), monkeypatch)
    assert report.accuracy == 0.0
    assert report.parse_rate == 0.0
    assert report.refusal_rate is None  # no harmful queries in the set


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------

def test_pipeline_import_leaves_scipy_unloaded():
    # neither importing the pipeline nor running the safety test loads scipy
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, langlift.pipeline; "
            "langlift.pipeline.ev.chi2_test([[1, 10, 5], [0, 16, 0]]); "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
