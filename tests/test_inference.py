import copy
from pathlib import Path

import numpy as np
import pytest

from langlift import inference as inf
from langlift import model as md
from langlift import tokenizer as tok

GOLDEN = Path(__file__).parent / "golden"

QA = [("q one", "a one"), ("q two", "a two"), ("q three", "a three")]
PENDING = ["q one", "q two", "q three", "q four"]


# ---------------------------------------------------------------------------
# template rendering
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_turns", [0, 1, 2, 3])
def test_template_matches_golden_bytes(n_turns):
    history = inf.ConversationHistory(turns=QA[:n_turns], pending=PENDING[n_turns])
    rendered = inf.render_template_text(history)
    golden = (GOLDEN / f"template_turns{n_turns}.txt").read_text()
    assert rendered == golden


def test_template_zero_turns_structure():
    history = inf.ConversationHistory(pending="hello there")
    text = inf.render_template_text(history)
    assert text == (f"<s>[INST] <<SYS>>\n{inf.DEFAULT_SYSTEM_PROMPT}\n<</SYS>>\n\n"
                    "hello there [/INST]")


def test_template_two_turn_block_counts():
    history = inf.ConversationHistory(turns=QA[:2], pending=PENDING[2])
    text = inf.render_template_text(history)
    assert text.count("[INST]") == 3
    assert text.count("</s>") == 2
    assert text.count("<<SYS>>") == 1


def test_template_purity():
    history = inf.ConversationHistory(turns=QA[:1], pending="next q")
    assert inf.render_template_text(history) == inf.render_template_text(history)


def test_template_empty_pending_rejected():
    with pytest.raises(inf.InferenceError):
        inf.render_template_text(inf.ConversationHistory(pending=""))


def test_render_template_encodes(toy):
    history = inf.ConversationHistory(pending="say " + toy.spec.content_words[0])
    ids = inf.render_template(history, toy.vocab)
    assert toy.vocab.decode(ids) == inf.render_template_text(history)


# ---------------------------------------------------------------------------
# greedy decoding on a rigged model
# ---------------------------------------------------------------------------

def rigged_bundle():
    """A small bundle for decoding through a monkeypatched forward."""
    config = md.ModelConfig(vocab_size=12, n_layers=1, d_model=8, n_heads=2,
                            d_ff=16, max_seq_len=32, lora_rank=1, lora_alpha=1.0,
                            lora_dropout=0.0)
    weights = md.init_weights(config, seed=0)
    return md.ModelBundle(config=config, weights=weights)


def scripted_forward(script):
    """A forward whose n-th call puts the top logit on script[n]."""
    emit = iter(script)

    def fake_forward(ids, weights, adapters=None, **kw):
        logits = np.zeros((len(ids), 12), dtype=np.float32)
        logits[-1, next(emit)] = 5.0
        return md.ForwardResult(logits=md.nc.Tensor(logits), hidden=None, attention=[])

    return fake_forward


def test_greedy_emits_rigged_sequence(monkeypatch):
    monkeypatch.setattr(inf, "forward", scripted_forward([3, 5, 7, 1, 1, 1]))
    assert inf.greedy_decode(rigged_bundle(), [0, 0], max_new=3) == [3, 5, 7]


def test_greedy_tie_breaks_to_lowest_id(monkeypatch):
    def fake_forward(ids, weights, adapters=None, **kw):
        logits = np.zeros((len(ids), 12), dtype=np.float32)
        return md.ForwardResult(logits=md.nc.Tensor(logits), hidden=None, attention=[])

    monkeypatch.setattr(inf, "forward", fake_forward)
    assert inf.greedy_decode(rigged_bundle(), [0], max_new=2) == [0, 0]


def test_greedy_stops_at_eos(monkeypatch):
    monkeypatch.setattr(inf, "forward", scripted_forward([4, 9, 2, 2]))
    assert inf.greedy_decode(rigged_bundle(), [0], max_new=8, eos_id=9) == [4, 9]


def test_greedy_runs_every_token_once(monkeypatch):
    config = md.ModelConfig(vocab_size=17, n_layers=1, d_model=8, n_heads=2, d_ff=16,
                            max_seq_len=24, lora_rank=1, lora_alpha=1.0, lora_dropout=0.0)
    bundle = md.ModelBundle(config=config, weights=md.init_weights(config, seed=5))
    forward = inf.forward
    calls = []

    def recording_forward(ids, *args, **kw):
        calls.append(list(ids))
        return forward(ids, *args, **kw)

    monkeypatch.setattr(inf, "forward", recording_forward)
    prompt = [1, 2, 3, 4]
    for max_new in (1, 6, 40):  # the last one runs into max_seq_len
        calls.clear()
        out = inf.greedy_decode(bundle, prompt, max_new=max_new)
        assert calls[0] == prompt
        assert calls[1:] == [[t] for t in out[:-1]]
        assert sum(map(len, calls)) == len(prompt) + len(out) - 1
    assert len(prompt) + len(out) == config.max_seq_len


def test_greedy_prefix_stable():
    config = md.ModelConfig(vocab_size=17, n_layers=1, d_model=8, n_heads=2, d_ff=16,
                            max_seq_len=24, lora_rank=1, lora_alpha=1.0, lora_dropout=0.0)
    bundle = md.ModelBundle(config=config, weights=md.init_weights(config, seed=5))
    short = inf.greedy_decode(bundle, [1, 2, 3], max_new=4)
    long = inf.greedy_decode(bundle, [1, 2, 3], max_new=9)
    assert long[:len(short)] == short


def test_greedy_rejects_max_new_below_one():
    with pytest.raises(inf.InferenceError):
        inf.greedy_decode(rigged_bundle(), [0], max_new=0)


def test_greedy_context_overflow():
    config = md.ModelConfig(vocab_size=17, n_layers=1, d_model=8, n_heads=2, d_ff=16,
                            max_seq_len=8, lora_rank=1, lora_alpha=1.0, lora_dropout=0.0)
    bundle = md.ModelBundle(config=config, weights=md.init_weights(config, seed=5))
    with pytest.raises(md.SequenceLengthError):
        inf.greedy_decode(bundle, [0] * 8, max_new=2)


def uncached_greedy(bundle, prompt_ids, max_new, eos_id=None):
    """The argmax loop over full-prefix forwards that cached decoding replaces."""
    ids, out = list(prompt_ids), []
    for _ in range(max_new):
        logits = md.forward(ids, bundle.weights, bundle.adapters).logits.data
        nxt = int(np.argmax(logits[-1]))
        out.append(nxt)
        ids.append(nxt)
        if nxt == eos_id or len(ids) >= bundle.config.max_seq_len:
            break
    return out


def test_cached_greedy_matches_uncached_loop():
    config = md.ModelConfig(vocab_size=29, n_layers=2, d_model=16, n_heads=2, d_ff=32,
                            max_seq_len=40, lora_rank=2, lora_alpha=4.0, lora_dropout=0.0)
    rng = np.random.default_rng(21)
    weights = md.init_weights(config, seed=6)
    adapters = md.init_adapters(config, seed=7)
    assert all(set(per_layer) == set(md.ALL_TARGETS) for per_layer in adapters)
    for per_layer in adapters:
        for a in per_layer.values():
            a.up.data = rng.normal(0.0, 0.3, size=a.up.shape).astype(np.float32)
    bundle = md.ModelBundle(config=config, weights=weights, adapters=adapters)
    outputs = set()
    for i in range(24):
        prompt = rng.integers(0, config.vocab_size, size=int(rng.integers(1, 30))).tolist()
        eos_id = 3 if i % 2 else None
        out = inf.greedy_decode(bundle, prompt, max_new=16, eos_id=eos_id)
        assert out == uncached_greedy(bundle, prompt, 16, eos_id)
        outputs.add(tuple(out))
    assert len(outputs) > 12  # the prompts steer the model, not one fixed output


# ---------------------------------------------------------------------------
# structured parsing
# ---------------------------------------------------------------------------

def specials(toy):
    v = toy.vocab
    return v.special_id(tok.EN), v.special_id(tok.RESPONSE), v.special_id(tok.X), v.eos_id


def test_parse_tcot_full_chain(toy):
    en, resp, x, eos = specials(toy)
    v = toy.vocab
    out = [en] + v.encode("say me") + [resp] + v.encode("me") + [x] + v.encode("zum") + [eos]
    parse = inf.parse_tcot(out, v)
    assert parse.mode == "tcot"
    assert v.decode(parse.q_en) == "say me"
    assert v.decode(parse.a_en) == "me"
    assert v.decode(parse.a_x) == "zum"


def test_parse_en_direct(toy):
    en, resp, x, eos = specials(toy)
    v = toy.vocab
    out = [resp] + v.encode("the answer") + [eos]
    parse = inf.parse_tcot(out, v)
    assert parse.mode == "en-direct"
    assert v.decode(parse.a_en) == "the answer"


def test_parse_translation_mode(toy):
    en, resp, x, eos = specials(toy)
    v = toy.vocab
    parse = inf.parse_tcot([x] + v.encode("zum zum") + [eos], v)
    assert parse.mode == "translation"
    assert v.decode(parse.a_x) == "zum zum"
    parse = inf.parse_tcot([en] + v.encode("hi") + [eos], v)
    assert parse.mode == "translation"
    assert v.decode(parse.a_en) == "hi"


def test_parse_missing_x_token(toy):
    en, resp, x, eos = specials(toy)
    v = toy.vocab
    out = [en] + v.encode("q") + [resp] + v.encode("a") + [eos]
    with pytest.raises(inf.ParseError) as err:
        inf.parse_tcot(out, v)
    assert "⟨X⟩" in str(err.value)


def test_parse_out_of_order(toy):
    en, resp, x, eos = specials(toy)
    v = toy.vocab
    out = [resp] + v.encode("a") + [en] + v.encode("q") + [x] + v.encode("z") + [eos]
    with pytest.raises(inf.ParseError) as err:
        inf.parse_tcot(out, v)
    assert err.value.positions


# ---------------------------------------------------------------------------
# multi-turn assembly
# ---------------------------------------------------------------------------

def make_parse(toy, q_en, a_en, a_x):
    v = toy.vocab
    return inf.TcotParse(mode="tcot", q_en=v.encode(q_en), a_en=v.encode(a_en),
                         a_x=v.encode(a_x))


def test_multiturn_uses_en_history(toy):
    parse = make_parse(toy, "say me", "me", "zum")
    history = inf.build_multiturn_input([parse], "new q", toy.vocab)
    assert history.turns == [("say me", "me")]
    assert history.pending == "new q"


def test_multiturn_zero_turns(toy):
    history = inf.build_multiturn_input([], "first q", toy.vocab)
    assert history.turns == [] and history.pending == "first q"


def test_multiturn_rejects_unparsed(toy):
    bad = inf.TcotParse(mode="en-direct", a_en=[1])
    with pytest.raises(inf.InferenceError):
        inf.build_multiturn_input([bad], "new", toy.vocab)


def test_greedy_adapter_bundle_decodes_as_its_merged_copy():
    config = md.ModelConfig(vocab_size=29, n_layers=2, d_model=16, n_heads=2, d_ff=32,
                            max_seq_len=40, lora_rank=2, lora_alpha=4.0, lora_dropout=0.0)
    rng = np.random.default_rng(22)
    bundle = md.ModelBundle(config=config, weights=md.init_weights(config, seed=6),
                            adapters=md.init_adapters(config, seed=7))
    for per_layer in bundle.adapters:
        for a in per_layer.values():
            a.up.data = rng.normal(0.0, 0.3, size=a.up.shape).astype(np.float32)
    before = copy.deepcopy(bundle)
    merged = copy.deepcopy(bundle)
    md.merge_adapters(merged.weights, merged.adapters)
    for _ in range(12):
        prompt = rng.integers(0, config.vocab_size, size=int(rng.integers(1, 30))).tolist()
        out = inf.greedy_decode(bundle, prompt, max_new=16)
        assert out == inf.greedy_decode(merged, prompt, max_new=16)
    for (name, t), (_, b) in zip(bundle.named_parameters(), before.named_parameters()):
        assert np.array_equal(t.data, b.data), name
    assert not any(a.merged for per_layer in bundle.adapters for a in per_layer.values())
