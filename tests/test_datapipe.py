import numpy as np
import pytest

from langlift import datapipe as dp
from langlift import inference as inf
from langlift import tokenizer as tok
from langlift import world as wd


def ids_of(toy, *surfaces):
    return [toy.vocab.special_id(s) for s in surfaces]


@pytest.fixture(scope="module")
def queries(toy):
    return wd.gen_query_set(toy.spec, 60, harmful_fraction=0.15, seed=21)


@pytest.fixture(scope="module")
def rkd(toy, queries):
    return dp.build_rkd(queries, toy.teacher, toy.vocab)


@pytest.fixture(scope="module")
def tcot(toy, rkd):
    return dp.build_tcot(rkd, toy.translate, toy.vocab)


# ---------------------------------------------------------------------------
# translation CPT
# ---------------------------------------------------------------------------

def test_translation_cpt_two_instances_per_pair(toy):
    pair = toy.pairs[0]
    records = dp.build_translation_cpt([pair], [], toy.vocab, seed=0)
    assert len(records) == 2
    x_id, en_id = ids_of(toy, "⟨X⟩", tok.EN)
    v = toy.vocab
    by_dir = {r.direction: r.ids for r in records}
    assert by_dir["en->x"] == v.encode(pair.en) + [x_id] + v.encode(pair.x)
    assert by_dir["x->en"] == v.encode(pair.x) + [en_id] + v.encode(pair.en)


def test_translation_cpt_counts_and_symmetry(toy):
    records = dp.build_translation_cpt(toy.pairs, toy.en_mono[:10], toy.vocab, seed=1)
    assert len(records) == 2 * len(toy.pairs)
    dirs = [r.direction for r in records]
    assert dirs.count("en->x") == dirs.count("x->en") == len(toy.pairs)


def test_translation_cpt_eos_only_at_boundaries(toy):
    records = dp.build_translation_cpt(toy.pairs[:5], toy.en_mono[:3], toy.vocab, seed=2)
    eos = toy.vocab.eos_id
    for r in records:
        # exactly one separator: between the replay doc and the instance
        assert r.ids.count(eos) == 1
        lang_ids = set(ids_of(toy, "⟨X⟩", tok.EN))
        assert sum(1 for i in r.ids if i in lang_ids) == 1


def test_translation_cpt_empty_pairs(toy):
    with pytest.raises(dp.DataError):
        dp.build_translation_cpt([], [], toy.vocab, seed=0)


def test_translation_cpt_deterministic(toy):
    a = dp.build_translation_cpt(toy.pairs, toy.en_mono[:10], toy.vocab, seed=5)
    b = dp.build_translation_cpt(toy.pairs, toy.en_mono[:10], toy.vocab, seed=5)
    assert [r.ids for r in a] == [r.ids for r in b]


# ---------------------------------------------------------------------------
# recovery records
# ---------------------------------------------------------------------------

def test_rkd_targets_start_with_response(toy, rkd):
    resp = toy.vocab.special_id(tok.RESPONSE)
    assert all(r.target_ids[0] == resp for r in rkd)


def test_rkd_replays_teacher(toy, rkd):
    eos = toy.vocab.eos_id
    for r in rkd[:100]:
        body = r.target_ids[1:]
        assert body[-1] == eos
        assert toy.vocab.decode(body[:-1]) == toy.teacher.answer(r.q_en)


def test_rkd_harmful_gets_refusal(toy, queries, rkd):
    refusal = toy.spec.refusal
    for q, r in zip(queries, rkd):
        if q.harmful:
            assert r.a_en == refusal


# each chat builder's records, paired with the query the record poses
POSED = {
    "rkd": lambda toy, qs: [(r, r.q_en) for r in dp.build_rkd(qs, toy.teacher, toy.vocab)],
    "tcot": lambda toy, qs: [(r, r.q_x) for r in dp.build_tcot(
        dp.build_rkd(qs, toy.teacher, toy.vocab), toy.translate, toy.vocab)],
    "translation_sft": lambda toy, qs: [
        (r, "translate: {src}".format(src=r.meta["src"]))
        for r in dp.build_translation_sft(["translate: {src}"], toy.pairs[:3], toy.vocab)],
    "direct_sft": lambda toy, qs: [
        (r, toy.translate(r.meta["q_en"]))
        for r in dp.build_direct_sft(qs, toy.teacher, toy.translate, toy.vocab)],
}


@pytest.mark.parametrize("builder", sorted(POSED))
def test_chat_input_is_wrapped_query(toy, queries, builder):
    for r, posed in POSED[builder](toy, queries[:5]):
        assert r.input_ids == inf.render_template(inf.ConversationHistory(pending=posed),
                                                  toy.vocab)
        text = toy.vocab.decode(r.input_ids)
        assert text.startswith("<s>[INST] <<SYS>>")
        assert posed in text
        assert text.endswith("[/INST]")


@pytest.mark.parametrize("build", [
    lambda toy, qs: dp.build_rkd(qs, toy.teacher, toy.vocab),
    lambda toy, qs: dp.build_direct_sft(qs, toy.teacher, toy.translate, toy.vocab),
], ids=["rkd", "direct_sft"])
def test_unanswerable_query_error(toy, queries, build):
    bad = [queries[0], wd.Query("gibberish", False)]
    with pytest.raises(dp.DataError) as err:
        build(toy, bad)
    assert "query 1" in str(err.value)


# ---------------------------------------------------------------------------
# chain records
# ---------------------------------------------------------------------------

def test_tcot_identity_translator(toy, rkd):
    records = dp.build_tcot(rkd[:5], lambda s: s, toy.vocab)
    en_id, resp, x_id = ids_of(toy, tok.EN, tok.RESPONSE, "⟨X⟩")
    for r in records:
        assert r.q_x == r.q_en and r.a_x == r.a_en
        assert r.target_ids[0] == en_id
        assert r.target_ids.count(en_id) == 1
        assert r.target_ids.count(resp) == 1
        assert r.target_ids.count(x_id) == 1


def test_tcot_special_order_invariant(toy, tcot):
    en_id, resp, x_id = ids_of(toy, tok.EN, tok.RESPONSE, "⟨X⟩")
    for r in tcot:
        pos = {i: r.target_ids.index(i) for i in (en_id, resp, x_id)}
        assert pos[en_id] < pos[resp] < pos[x_id]
        assert r.target_ids.count(en_id) == 1
        assert r.target_ids.count(resp) == 1
        assert r.target_ids.count(x_id) == 1


def test_tcot_parse_round_trip(toy, tcot):
    for r in tcot:
        parse = inf.parse_tcot(r.target_ids, toy.vocab)
        assert parse.mode == "tcot"
        assert toy.vocab.decode(parse.q_en) == r.q_en
        assert toy.vocab.decode(parse.a_en) == r.a_en
        assert toy.vocab.decode(parse.a_x) == r.a_x


def test_tcot_cipher_round_trip(toy, tcot):
    for r in tcot[:50]:
        assert wd.oracle_translate(toy.spec, r.a_x, "x->en") == r.a_en


# ---------------------------------------------------------------------------
# translation instructions
# ---------------------------------------------------------------------------

def test_translation_sft_cross_product(toy):
    records = dp.build_translation_sft(["translate: {src}", "other tongue: {src}"],
                                       toy.pairs[:3], toy.vocab)
    assert len(records) == 2 * 3 * 2


def test_translation_sft_starts_with_language_token(toy):
    records = dp.build_translation_sft(["translate: {src}"], toy.pairs[:4], toy.vocab)
    lang_ids = set(ids_of(toy, "⟨X⟩", tok.EN))
    assert all(r.target_ids[0] in lang_ids for r in records)


def test_translation_sft_target_matches_oracle(toy):
    records = dp.build_translation_sft(["translate: {src}"], toy.pairs[:4], toy.vocab)
    for r in records:
        body = toy.vocab.decode(r.target_ids[1:-1])
        src, dst = r.meta["src"], r.meta["dst"]
        direction = r.meta["direction"]
        assert body == dst
        assert wd.oracle_translate(toy.spec, src, direction) == dst


def test_translation_sft_missing_placeholder(toy):
    with pytest.raises(dp.TemplateError):
        dp.build_translation_sft(["no slot here"], toy.pairs[:1], toy.vocab)


# ---------------------------------------------------------------------------
# direct (no-chain) records
# ---------------------------------------------------------------------------

def test_direct_sft_layout(toy, queries):
    v = toy.vocab
    records = dp.build_direct_sft(queries[:10], toy.teacher, toy.translate, v)
    assert len(records) == 10
    for q, r in zip(queries, records):
        a_en = toy.teacher.answer(q.text)
        assert r.kind == "direct-sft"
        assert r.meta == {"q_en": q.text, "a_en": a_en}
        assert r.input_ids == inf.render_template(
            inf.ConversationHistory(pending=toy.translate(q.text)), v)
        assert r.target_ids == ([v.special_id(tok.RESPONSE)] + v.encode(toy.translate(a_en))
                                + [v.eos_id])
        assert wd.oracle_translate(toy.spec, v.decode(r.target_ids[1:-1]), "x->en") == a_en


# ---------------------------------------------------------------------------
# mixing and packing
# ---------------------------------------------------------------------------

def test_mix_finetune_proportions(toy, tcot, rkd):
    trans = dp.build_translation_sft(["translate: {src}"], toy.pairs, toy.vocab)
    mixed = dp.mix_finetune(tcot, rkd, trans, seed=3)
    kinds = [r.kind for r in mixed]
    assert kinds.count("tcot") == len(tcot)
    assert kinds.count("rkd") == len(rkd)
    assert kinds.count("translation-sft") == round(0.2 * len(tcot))


def test_mix_deterministic(toy, tcot, rkd):
    trans = dp.build_translation_sft(["translate: {src}"], toy.pairs, toy.vocab)
    a = dp.mix_finetune(tcot, rkd, trans, seed=3)
    b = dp.mix_finetune(tcot, rkd, trans, seed=3)
    assert [r.input_ids for r in a] == [r.input_ids for r in b]


def test_pack_sft_pads_and_masks(toy, rkd):
    packed = dp.pack_and_mix(rkd, pad_id=toy.vocab.pad_id, seed=4, kind="transform-sft",
                             max_len=256, batch_size=4)
    for batch in packed.batches:
        width = len(batch[0].ids)
        for ex in batch:
            assert len(ex.ids) == width
            pad_positions = ex.ids == toy.vocab.pad_id
            assert not ex.loss_mask[pad_positions].any()
    # masked positions count exactly the target tokens
    total_masked = sum(ex.n_target for ex in packed.examples)
    assert total_masked == sum(len(r.target_ids) for r in rkd)


def test_pack_mask_true_exactly_on_targets(toy, rkd):
    packed = dp.pack_and_mix(rkd[:8], pad_id=toy.vocab.pad_id, seed=0, kind="transform-sft",
                             max_len=256, batch_size=8)
    by_len = {}
    for r in rkd[:8]:
        by_len.setdefault(len(r.input_ids) + len(r.target_ids), []).append(r)
    for ex in packed.examples:
        n_real = int((ex.ids != toy.vocab.pad_id).sum())
        # find the source record by exact id match
        match = [r for r in rkd[:8] if list(r.input_ids) + list(r.target_ids) == ex.ids[:n_real].tolist()]
        assert len(match) == 1
        r = match[0]
        assert not ex.loss_mask[:len(r.input_ids)].any()
        assert ex.loss_mask[len(r.input_ids):n_real].all()


def test_pack_deterministic_order(toy, rkd):
    a = dp.pack_and_mix(rkd, pad_id=toy.vocab.pad_id, seed=9, kind="transform-sft",
                        max_len=256, batch_size=4)
    b = dp.pack_and_mix(rkd, pad_id=toy.vocab.pad_id, seed=9, kind="transform-sft",
                        max_len=256, batch_size=4)
    for ba, bb in zip(a.batches, b.batches):
        for ea, eb in zip(ba, bb):
            assert np.array_equal(ea.ids, eb.ids)


def test_pack_documents_windows(toy):
    docs = dp.build_cpt(toy.en_mono[:40], toy.vocab)
    packed = dp.pack_and_mix(docs, pad_id=toy.vocab.pad_id, seed=1, kind="target-cpt",
                             max_len=32, batch_size=4, eos_id=toy.vocab.eos_id)
    eos = toy.vocab.eos_id
    doc_ids = {tuple(d.ids) for d in docs}
    segments = 0
    for ex in packed.examples:
        assert len(ex.ids) <= 32
        n_real = int(ex.loss_mask.sum())
        assert ex.loss_mask[:n_real].all()  # pads only ever trail
        # windows hold whole documents joined by single separators
        window = ex.ids[:n_real].tolist()
        assert window[0] != eos and window[-1] != eos
        segment: list[int] = []
        for t in window + [eos]:
            if t == eos:
                assert tuple(segment) in doc_ids
                segments += 1
                segment = []
            else:
                segment.append(t)
    assert segments == len(docs)


def test_pack_overlong_record_rejected(toy, rkd):
    with pytest.raises(dp.LengthError):
        dp.pack_and_mix(rkd, pad_id=toy.vocab.pad_id, seed=0, kind="transform-sft",
                        max_len=8, batch_size=2)


def test_pack_mixed_kinds_rejected(toy, rkd):
    docs = dp.build_cpt(toy.en_mono[:3], toy.vocab)
    with pytest.raises(dp.DataError):
        dp.pack_and_mix(docs + rkd[:2], pad_id=toy.vocab.pad_id, seed=0, kind="target-cpt",
                        eos_id=toy.vocab.eos_id)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_records_jsonl_round_trip(tmp_path, toy, rkd, tcot):
    trans = dp.build_translation_sft(["translate: {src}"], toy.pairs[:2], toy.vocab)
    docs = dp.build_cpt(toy.en_mono[:3], toy.vocab)
    tcpt = dp.build_translation_cpt(toy.pairs[:2], toy.en_mono[:2], toy.vocab, seed=0)
    records = docs + tcpt + rkd[:2] + tcot[:2] + trans[:2]
    path = tmp_path / "records.jsonl"
    dp.save_records(path, records)
    loaded = dp.load_records(path)
    assert len(loaded) == len(records)
    for orig, back in zip(records, loaded):
        assert orig.kind == back.kind
        if hasattr(orig, "ids"):
            assert orig.ids == back.ids
        else:
            assert orig.input_ids == back.input_ids
            assert orig.target_ids == back.target_ids
    with pytest.raises(dp.DataError):
        dp.record_from_row({"kind": "no-such-kind", "ids": [1]})


def test_dataset_manifest_counts(toy, rkd, tcot):
    manifest = dp.dataset_manifest(rkd[:3] + tcot[:2], seed=7, vocab_hash="zz")
    assert manifest["counts"] == {"rkd": 3, "tcot": 2}
    assert manifest["seed"] == 7 and manifest["vocab_hash"] == "zz"
