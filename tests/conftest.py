import os
import sys

# One BLAS thread before anything loads numpy: multi-threaded GEMM sums
# in another order, and training turns that rounding into different
# verdicts, so the suite would read differently on machines with more
# cores. pytest loads this file before it collects any test module.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples in every process and on every
# machine: the seed comes from each test's own name, not from the clock
# or an example database.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

from langlift import tokenizer as tok
from langlift import world as wd
from langlift.inference import DEFAULT_SYSTEM_PROMPT, TEMPLATE_CHARS


@dataclass
class ToyWorld:
    spec: wd.ToyLanguageSpec
    teacher: wd.TeacherOracle
    base_vocab: tok.Vocabulary   # source-language vocab with ⟨EOS⟩/⟨PAD⟩
    vocab: tok.Vocabulary        # extended with target tokens and ⟨EN⟩/⟨X⟩/⟨response⟩
    en_mono: list[str]
    x_mono: list[str]
    pairs: list[wd.ParallelPair]

    def translate(self, s: str) -> str:
        return wd.oracle_translate(self.spec, s, "en->x")


def build_toy_world(seed=11, n_words=60, en_vocab_size=220, x_vocab_size=150,
                    n_mono=300, n_pairs=80) -> ToyWorld:
    spec = wd.build_language_spec(seed=seed, n_words=n_words)
    en_mono = wd.gen_corpus(spec, "mono-en", n_mono, seed=seed + 1)
    x_mono = wd.gen_corpus(spec, "mono-x", n_mono, seed=seed + 2)
    pairs = wd.gen_corpus(spec, "parallel", n_pairs, seed=seed + 3)

    # format strings ride along so the learner compresses them
    format_lines = [
        f"<s>[INST] <<SYS>>\n{DEFAULT_SYSTEM_PROMPT}\n<</SYS>>\n\n",
        " [/INST] ", " </s><s>[INST] ",
        # part of the shipped BPE corpus (pipeline._format_lines)
        "Let me interpret the instruction in English: "
        " Then the English response is: "
        " Finally, the X response is: ",
    ] * 20
    v_en = tok.learn_vocab(en_mono + format_lines, en_vocab_size, alphabet=TEMPLATE_CHARS)
    base_vocab = tok.merge_vocab(v_en, tok.Vocabulary([], []), [tok.EOS, tok.PAD, tok.RESPONSE])
    v_x = tok.learn_vocab(x_mono, x_vocab_size)
    vocab = tok.merge_vocab(base_vocab, v_x, [tok.EN, tok.X])
    return ToyWorld(
        spec=spec, teacher=wd.TeacherOracle(spec),
        base_vocab=base_vocab, vocab=vocab,
        en_mono=en_mono, x_mono=x_mono, pairs=pairs,
    )


@pytest.fixture(scope="session")
def toy() -> ToyWorld:
    return build_toy_world()
