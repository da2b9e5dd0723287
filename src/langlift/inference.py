"""Chat-template rendering, greedy decoding, and structured-output parsing.

The prompt format is the bracketed instruction style of the source chat
model: a system block inside the first instruction, every past turn
closed with a sequence terminator, and the pending query left open. The
history is plain text with no reserved tokens. Model outputs are routed
structurally: whichever reserved token appears first tells the caller
whether this is a direct source-language answer, a translation, or a
full translation chain-of-thought.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import KVCache, ModelBundle, SequenceLengthError, fold_adapters, forward
from .tokenizer import EN, EOS, RESPONSE, X, Vocabulary

DEFAULT_SYSTEM_PROMPT = "You are a helpful assistant."

# the chat template's fixed segments: the first instruction's opener with
# the system block, the close of every instruction, and the break between
# a turn's answer and the next instruction
SYSTEM_OPEN = f"<s>[INST] <<SYS>>\n{DEFAULT_SYSTEM_PROMPT}\n<</SYS>>\n\n"
INST_CLOSE = " [/INST] "
TURN_BREAK = " </s><s>[INST] "

# characters the chat template and fine-tuning targets may introduce on
# top of the corpus alphabet; the vocabulary learner is fed these
TEMPLATE_CHARS = sorted(set(
    "<s>[INST]/ \n"
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789.:,!?'-"
))


class InferenceError(ValueError):
    pass


class ParseError(InferenceError):
    def __init__(self, message: str, positions=None):
        super().__init__(message)
        self.positions = list(positions or [])


@dataclass
class ConversationHistory:
    """Past (query, answer) turns in the source language plus the
    pending query; never contains reserved tokens."""

    turns: list[tuple[str, str]] = field(default_factory=list)
    pending: str = ""


def render_template_text(history: ConversationHistory) -> str:
    """Exact prompt bytes for a conversation state.

    <s>[INST] <<SYS>>\\n{system}\\n<</SYS>>\\n\\n{q1} [/INST] {a1} </s>
    <s>[INST] {q2} [/INST] ...  (terminator and next opener are adjacent)
    """
    if not history.pending:
        raise InferenceError("pending query must be non-empty")
    turns = [q + INST_CLOSE + a for q, a in history.turns] + [history.pending]
    return SYSTEM_OPEN + TURN_BREAK.join(turns) + INST_CLOSE.rstrip()


def render_template(history: ConversationHistory, vocab: Vocabulary) -> list[int]:
    return vocab.encode(render_template_text(history))


def greedy_decode(bundle: ModelBundle, prompt_ids: list[int], max_new: int,
                  eos_id: int | None = None) -> list[int]:
    """Argmax decoding; ties break to the lowest token id (np.argmax
    picks the first maximum); stops after emitting eos_id or max_new
    tokens (max_new must be at least 1). No sampling anywhere.

    A bundle's adapters are folded into their projections once per call
    (model.fold_adapters), and the model runs without adapters, one
    product per projection; the bundle is left as it was. So a bundle
    decodes to the tokens its merged copy decodes to, bit for bit.

    Decoding is cached: the first forward runs the prompt, and each
    later one runs only the newest token against the stored keys and
    values, so every token passes through the model once. The first
    generated token's logits are bit-identical to an uncached forward of
    the folded weights over the prompt, and agree with the adapter
    forward to float32 rounding; later logits agree with the uncached
    forward to float32 rounding."""
    if max_new < 1:
        raise InferenceError(f"max_new must be at least 1, got {max_new}")
    max_len = bundle.config.max_seq_len
    if len(prompt_ids) >= max_len:
        raise SequenceLengthError(
            f"prompt of {len(prompt_ids)} tokens leaves no room in context {max_len}")
    weights = bundle.weights
    if bundle.adapters is not None:
        weights = fold_adapters(weights, bundle.adapters)
    ids = prompt_ids
    out: list[int] = []
    cache = KVCache(bundle.config, weights.embed.dtype)
    for _ in range(max_new):
        row = forward(ids, weights, cache=cache).logits.data[-1]
        nxt = int(np.argmax(row))
        out.append(nxt)
        if nxt == eos_id or len(prompt_ids) + len(out) >= max_len:
            break
        ids = [nxt]
    return out


@dataclass
class TcotParse:
    """Structured view of one model output.

    mode "tcot": reserved tokens appeared in the order ⟨EN⟩, ⟨response⟩,
    ⟨X⟩ and all three text fields are present. mode "en-direct": output
    began with ⟨response⟩. mode "translation": ⟨EN⟩ or ⟨X⟩ alone, then
    text (a_en or a_x).
    """

    mode: str
    q_en: list[int] | None = None
    a_en: list[int] | None = None
    a_x: list[int] | None = None


def parse_tcot(output_ids: list[int], vocab: Vocabulary) -> TcotParse:
    """Split an output on its reserved tokens ⟨EN⟩, ⟨response⟩ and ⟨X⟩;
    malformed order is an error carrying the offending positions, never
    silently repaired. Reserved tokens the vocabulary does not define
    simply never occur (a pre-transfer vocabulary has neither ⟨EN⟩ nor
    ⟨X⟩)."""
    wanted = {vocab.specials[s]: s for s in (EN, RESPONSE, X) if s in vocab.specials}
    eos_id = vocab.eos_id

    ids = list(output_ids)
    if eos_id in ids:
        ids = ids[:ids.index(eos_id)]
    marks = [(pos, wanted[i]) for pos, i in enumerate(ids) if i in wanted]
    names = [name for _, name in marks]
    positions = [pos for pos, _ in marks]

    if names == [EN, RESPONSE, X]:
        if positions[0] != 0:
            raise ParseError("translation chain output must start with ⟨EN⟩", positions)
        return TcotParse(
            mode="tcot",
            q_en=ids[1:positions[1]],
            a_en=ids[positions[1] + 1:positions[2]],
            a_x=ids[positions[2] + 1:],
        )
    if names == [RESPONSE] and positions[0] == 0:
        return TcotParse(mode="en-direct", a_en=ids[1:])
    if len(names) == 1 and positions[0] == 0 and names[0] in (EN, X):
        field_name = "a_en" if names[0] == EN else "a_x"
        return TcotParse(mode="translation", **{field_name: ids[1:]})
    missing = [t for t in (EN, RESPONSE, X) if t not in names]
    if missing:
        raise ParseError(
            f"output is not a recognized format; missing {', '.join(missing)}", positions)
    raise ParseError(
        f"reserved tokens out of order or duplicated: {names}", positions)


def build_multiturn_input(prior_parses: list[TcotParse], new_query_x: str,
                          vocab: Vocabulary) -> ConversationHistory:
    """Assemble the conversation for the next target-language turn.

    Only the source-language portions of past outputs become history
    (q_en from the model's own translation step, a_en from its answer
    step); reserved tokens are stripped by construction.
    """
    turns = []
    for parse in prior_parses:
        if parse.mode != "tcot" or parse.q_en is None:
            raise InferenceError("prior turn did not parse as a translation chain")
        turns.append((vocab.decode(parse.q_en), vocab.decode(parse.a_en)))
    return ConversationHistory(turns=turns, pending=new_query_x)
