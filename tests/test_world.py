import pytest

from langlift import world as wd


@pytest.fixture(scope="module")
def spec():
    return wd.build_language_spec(seed=42)


def test_spec_deterministic():
    a = wd.build_language_spec(seed=7)
    b = wd.build_language_spec(seed=7)
    assert a.to_json() == b.to_json()


def test_spec_json_round_trip(spec):
    clone = wd.ToyLanguageSpec.from_json(spec.to_json())
    assert clone.cipher == spec.cipher
    assert clone.refusal == spec.refusal


def test_cipher_bijection_and_disjoint_surfaces(spec):
    assert len(set(spec.cipher.values())) == len(spec.cipher)
    assert not set(spec.cipher) & set(spec.cipher.values())


def test_translate_round_trip(spec):
    s = "say 3 4"
    x = wd.oracle_translate(spec, s, "en->x")
    assert wd.oracle_translate(spec, x, "x->en") == s


def test_translate_empty(spec):
    assert wd.oracle_translate(spec, "", "en->x") == ""


def test_translate_single_word(spec):
    w = spec.content_words[0]
    assert wd.oracle_translate(spec, w, "en->x") == spec.cipher[w]


def test_translate_unknown_word(spec):
    with pytest.raises(wd.TranslationError):
        wd.oracle_translate(spec, "notaword", "en->x")


def test_corpus_deterministic(spec):
    assert wd.gen_corpus(spec, "mono-en", 50, seed=1) == wd.gen_corpus(spec, "mono-en", 50, seed=1)


def test_corpus_zero_rejected(spec):
    with pytest.raises(wd.WorldError):
        wd.gen_corpus(spec, "mono-en", 0, seed=1)


def test_parallel_pairs_satisfy_oracle(spec):
    for pair in wd.gen_corpus(spec, "parallel", 100, seed=3):
        assert wd.oracle_translate(spec, pair.en, "en->x") == pair.x


def test_mono_x_words_in_cipher_image(spec):
    image = set(spec.cipher.values())
    for line in wd.gen_corpus(spec, "mono-x", 1000, seed=4):
        for w in line.split(" "):
            assert w in image


def test_teacher_copy(spec):
    teacher = wd.TeacherOracle(spec)
    a, b, c = spec.content_words[:3]
    assert teacher.answer(f"say {a} {b} {c}") == f"{a} {b} {c}"


def test_teacher_flip(spec):
    teacher = wd.TeacherOracle(spec)
    a, b = spec.content_words[:2]
    assert teacher.answer(f"flip {a} {b}") == f"{b} {a}"


def test_teacher_arithmetic(spec):
    teacher = wd.TeacherOracle(spec)
    assert teacher.answer("add 2 3") == "5"
    for i in range(10):
        for j in range(10):
            assert teacher.answer(f"add {i} {j}") == str(i + j)


def test_teacher_lookup(spec):
    teacher = wd.TeacherOracle(spec)
    key = sorted(spec.kv_table)[0]
    assert teacher.answer(f"what {key}") == spec.kv_table[key]


def test_teacher_refusal(spec):
    teacher = wd.TeacherOracle(spec)
    marker = spec.harmful_markers[0]
    assert teacher.answer(f"say {marker}") == spec.refusal
    assert teacher.answer(f"flip {marker} {spec.content_words[0]}") == spec.refusal


def test_teacher_unmatched(spec):
    teacher = wd.TeacherOracle(spec)
    with pytest.raises(wd.UnsupportedTaskError):
        teacher.answer(spec.content_words[0])


def test_teacher_deterministic(spec):
    teacher = wd.TeacherOracle(spec)
    q = f"flip {spec.content_words[4]} {spec.content_words[9]}"
    assert teacher.answer(q) == teacher.answer(q)


def test_query_set_no_harmful(spec):
    qs = wd.gen_query_set(spec, 50, harmful_fraction=0.0, seed=9)
    assert not any(q.harmful for q in qs)


def test_query_set_exact_fraction(spec):
    qs = wd.gen_query_set(spec, 100, harmful_fraction=0.1, seed=9)
    assert sum(q.harmful for q in qs) == 10


def test_query_flags_match_markers(spec):
    markers = set(spec.harmful_markers)
    for q in wd.gen_query_set(spec, 200, harmful_fraction=0.2, seed=11):
        assert q.harmful == bool(set(q.text.split(" ")) & markers)


def test_queries_all_answerable(spec):
    teacher = wd.TeacherOracle(spec)
    for q in wd.gen_query_set(spec, 300, harmful_fraction=0.1, seed=13):
        teacher.answer(q.text)  # must not raise


def test_split_disjoint(spec):
    for seed in (0, 1, 2, 99):
        qs = wd.gen_query_set(spec, 100, harmful_fraction=0.1, seed=seed)
        train, valid = wd.split_queries(qs, valid_fraction=0.2, seed=seed)
        assert len(train) + len(valid) == 100
        assert not {id(q) for q in train} & {id(q) for q in valid}


def test_jsonl_round_trip(tmp_path, spec):
    qs = wd.gen_query_set(spec, 20, harmful_fraction=0.5, seed=3)
    path = tmp_path / "q.jsonl"
    wd.save_jsonl(path, wd.query_rows(qs))
    assert wd.queries_from_rows(wd.load_jsonl(path)) == qs


def test_failed_jsonl_write_leaves_previous_file(tmp_path, spec):
    path = tmp_path / "q.jsonl"
    wd.save_jsonl(path, wd.query_rows(wd.gen_query_set(spec, 5, 0.2, seed=1)))
    before = path.read_bytes()
    rows = wd.query_rows(wd.gen_query_set(spec, 5, 0.2, seed=2))
    rows.insert(3, {"not json": object()})  # fails after three rows are written
    with pytest.raises(TypeError):
        wd.save_jsonl(path, rows)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q.jsonl"]
