"""The README's library example runs against the installed API."""

from __future__ import annotations

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _record(iid: str, question: str, analysis: str) -> str:
    return json.dumps({
        "id": iid,
        "question": question,
        "options": {"A": "甲", "B": "乙"},
        "answer": "A",
        "analysis": analysis,
    }, ensure_ascii=False) + "\n"


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    (tmp_path / "train.jsonl").write_text(
        _record("tr1", "高血压患者突发头痛，应考虑", "高血压可致脑出血。")
        + _record("tr2", "头痛的常见原因是", "需排除脑出血。"),
        encoding="utf-8",
    )
    (tmp_path / "test.jsonl").write_text(
        _record("te1", "高血压患者最需警惕的并发症是", "高血压可致脑出血。"), encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {})
    # the seed mined from the training pair is padded into the prompt
    assert "脑出血" in capsys.readouterr().out
