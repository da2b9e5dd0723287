import json
import os
from pathlib import Path

import pytest

from langlift import evallab as ev
from langlift import pipeline as pl
from langlift import tokenizer as tok
from langlift import world as wd
from langlift.inference import ConversationHistory, render_template


def run_steps_until_data(cfg, workdir):
    ws = pl.Workspace(workdir)
    ws.write_json("config.json", json.loads(cfg.to_json()))
    pl.step_gen_world(cfg, ws)
    pl.step_learn_vocab(cfg, ws)
    pl.step_merge_vocab(cfg, ws)
    pl.step_build_data(cfg, ws)
    return ws


def test_run_all_deterministic(tmp_path):
    reports = []
    for sub in ("a", "b"):
        pl.run_all(pl.tiny_config(seed=11), str(tmp_path / sub))
        reports.append(Path(tmp_path, sub, "report", "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_extension_keeps_source_tokenization(tmp_path):
    cfg = pl.tiny_config(seed=2)
    ws = run_steps_until_data(cfg, str(tmp_path))
    base, full = pl._vocabs(ws)
    data = pl._load_world(ws)
    for text in data["en_mono"][:30]:
        assert base.encode(text) == full.encode(text)


def test_manifest_reproducibility_fields(tmp_path):
    cfg = pl.tiny_config(seed=8)
    pl.run_all(cfg, str(tmp_path))
    manifest = json.loads(Path(tmp_path, "manifest.json").read_text())
    assert all(e["config_hash"] == cfg.hash() for e in manifest)
    # config on disk reproduces the hash
    loaded = pl.RunConfig.from_json(Path(tmp_path, "config.json").read_text())
    assert loaded.hash() == cfg.hash()


def test_evaluate_decodes_each_query_once(tmp_path, monkeypatch):
    """Each model decodes each validation query once, and the multi-turn
    probe decodes only its second turns. First turns come back as oracle
    chains so that the probe reaches every second turn."""
    cfg = pl.tiny_config(seed=9)
    pl.run_all(cfg, str(tmp_path))
    ws = pl.Workspace(str(tmp_path))
    _, vocab = pl._vocabs(ws)
    data = pl._load_world(ws)
    spec, valid_q = data["spec"], data["valid_q"]
    teacher = wd.TeacherOracle(spec)
    chains = {}
    for q in valid_q:
        q_x = wd.oracle_translate(spec, q.text, "en->x")
        prompt = tuple(render_template(ConversationHistory(pending=q_x), vocab))
        chains[prompt] = ([vocab.special_id(tok.EN)] + vocab.encode(q.text)
                          + [vocab.special_id(tok.RESPONSE)]
                          + vocab.encode(teacher.answer(q.text))
                          + [vocab.special_id(tok.X)]
                          + vocab.encode(ev.expected_x_answer(spec, q_x)) + [vocab.eos_id])

    first_turns, second_turns = [], []
    real_decode = pl.greedy_decode

    def counting_decode(bundle, prompt_ids, max_new, eos_id=None):
        key = tuple(prompt_ids)
        if key in chains:
            first_turns.append((id(bundle), key))
            return list(chains[key])
        second_turns.append(key)
        return real_decode(bundle, prompt_ids, max_new, eos_id=eos_id)

    monkeypatch.setattr(ev, "greedy_decode", counting_decode)
    monkeypatch.setattr(pl, "greedy_decode", counting_decode)
    report = pl.step_evaluate(cfg, ws)

    assert len(first_turns) == 2 * len(valid_q)
    assert len(set(first_turns)) == len(first_turns)
    n_pairs = min(8, sum(not q.harmful for q in valid_q)) // 2
    assert n_pairs >= 2
    assert len(second_turns) == n_pairs
    assert report["per_language"]["X"]["accuracy"]["final"]["accuracy"] == 100.0


def test_lock_closes_its_file_when_writing_the_pid_fails(tmp_path, monkeypatch):
    ws = pl.Workspace(str(tmp_path))
    real_open, opened = os.open, []

    def recording_open(*args, **kw):
        opened.append(real_open(*args, **kw))
        return opened[-1]

    def failing_write(fd, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(pl.os, "open", recording_open)
    monkeypatch.setattr(pl.os, "write", failing_write)
    with pytest.raises(OSError, match="No space left"):
        with ws.lock():
            pass
    monkeypatch.undo()
    assert len(opened) == 1
    with pytest.raises(OSError):  # the descriptor is closed
        os.fstat(opened[0])
    assert not (tmp_path / "run.lock").exists()


def test_multiturn_probe_counts_unusable_history_as_failed(toy):
    # ⟨PAD⟩ inside q_en decodes to bracket text, which the template
    # cannot encode as history; the pair fails instead of aborting
    v = toy.vocab
    queries = wd.gen_query_set(toy.spec, 2, harmful_fraction=0.0, seed=5)
    outputs = [[v.special_id(tok.EN)] + v.encode(q.text) + [v.special_id(tok.PAD)]
               + [v.special_id(tok.RESPONSE)] + v.encode(toy.teacher.answer(q.text))
               + [v.special_id(tok.X)] + v.encode(toy.translate(q.text)) + [v.eos_id]
               for q in queries]
    acc = ev.AccuracyReport(posed=[toy.translate(q.text) for q in queries], outputs=outputs,
                            answers=[None, None], expected=["", ""], harmful=[False, False],
                            refusal="")
    assert pl._multiturn_probe(None, acc, v, max_new=8) == 0.0
