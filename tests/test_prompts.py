from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from seedqa.corpus import DatasetFormatError, Instance, data_path
from seedqa.prompts import (
    DEFAULT_CONTEXT_TOKENS,
    DEFAULT_RESERVED_RESPONSE_TOKENS,
    DEFAULT_TOKEN_BUDGET,
    Exemplar,
    PromptSpec,
    RenderedPrompt,
    TokenBudgetError,
    compose,
    default_exemplars,
    default_template,
    load_exemplars,
    load_template,
    max_response_tokens,
)
from seedqa.textseg import estimate_tokens

QA_INSTRUCTION = (
    "Here is a multi-choice question about medical knowledge, please output "
    "the correct answer according to the question."
)
COT_INSTRUCTION = (
    "Here is a multi-choice question about medical knowledge, please analyze "
    "it in a step-by-step fashion and deduce the correct answer."
)
ICP_INSTRUCTION = (
    "Here is a clinical question, please refer to the knowledge seeds related "
    "to question-solving, and analyze this question step by step."
)


def toy_instance() -> Instance:
    return Instance(
        id="t1",
        question="患者表现为a与b，最可能的是",
        options={"A": "c", "B": "d", "C": "e"},
        answer="A",
        analysis="因为a与b提示c。",
    )


def exemplar(with_seeds=True) -> Exemplar:
    return Exemplar(
        question="示例问题",
        options={"A": "甲", "B": "乙"},
        answer="B",
        analysis="乙正确。",
        seeds=("s1", "s2") if with_seeds else None,
    )


def test_default_instruction_strings_exact():
    template = default_template()
    assert template.instructions["standard_qa"] == QA_INSTRUCTION
    assert template.instructions["cot"] == COT_INSTRUCTION
    assert template.instructions["icp"] == ICP_INSTRUCTION


def test_icp_zero_shot_snapshot():
    rendered = compose(toy_instance(), PromptSpec("icp", "zero"), seeds=["c", "d"])
    assert rendered.text == (
        "Here is a clinical question, please refer to the knowledge seeds "
        "related to question-solving, and analyze this question step by step."
        "\n\nquestion: 患者表现为a与b，最可能的是"
        "\noptions:"
        "\nA. c"
        "\nB. d"
        "\nC. e"
        "\nknowledge seeds: c、d"
    )
    assert rendered.kept_exemplars == 0
    assert rendered.estimated_tokens == estimate_tokens(rendered.text)


def test_standard_qa_zero_shot_snapshot():
    rendered = compose(toy_instance(), PromptSpec("standard_qa", "zero"))
    assert rendered.text == (
        "Here is a multi-choice question about medical knowledge, please "
        "output the correct answer according to the question."
        "\n\nquestion: 患者表现为a与b，最可能的是"
        "\noptions:"
        "\nA. c"
        "\nB. d"
        "\nC. e"
    )


def test_mode_separation_invariants():
    inst = toy_instance()
    ex = exemplar()
    qa = compose(inst, PromptSpec("standard_qa", "few", (ex,))).text
    cot = compose(inst, PromptSpec("cot", "few", (ex,))).text
    icp = compose(inst, PromptSpec("icp", "few", (ex,)), seeds=["c"]).text

    assert "step by step" not in qa and "step-by-step" not in qa
    assert "knowledge seeds:" not in qa
    assert "knowledge seeds:" not in cot
    assert COT_INSTRUCTION.split(",", 1)[1] not in icp  # no cot instruction tail
    assert "knowledge seeds:" in icp
    assert QA_INSTRUCTION not in cot and QA_INSTRUCTION not in icp


def test_exemplar_blocks_by_mode():
    inst = toy_instance()
    ex = exemplar()
    qa = compose(inst, PromptSpec("standard_qa", "few", (ex,))).text
    cot = compose(inst, PromptSpec("cot", "few", (ex,))).text
    icp = compose(inst, PromptSpec("icp", "few", (ex,)), seeds=["c"]).text

    assert "answer: B" in qa
    assert "analysis:" not in qa
    assert "analysis: 乙正确。" in cot
    assert "knowledge seeds: s1、s2" in icp
    assert "analysis: 乙正确。" in icp
    # the target block never includes an answer or analysis line
    assert not qa.rstrip().endswith("answer: B") or qa.count("answer:") == 1
    for text in (qa, cot, icp):
        target = text.rsplit("\n\n", 1)[1]
        assert "answer:" not in target
        assert "analysis:" not in target


def test_exemplars_render_in_order_and_all():
    inst = toy_instance()
    exemplars = default_exemplars()
    assert len(exemplars) == 6
    rendered = compose(inst, PromptSpec("cot", "few", exemplars))
    assert rendered.kept_exemplars == 6
    positions = [rendered.text.index(ex.question) for ex in exemplars]
    assert positions == sorted(positions)
    assert rendered.text.index(inst.question) > positions[-1]


def test_icp_exemplars_must_have_seeds():
    with pytest.raises(ValueError, match="seed"):
        PromptSpec("icp", "few", (exemplar(with_seeds=False),))


def test_seeds_only_in_icp():
    inst = toy_instance()
    with pytest.raises(ValueError, match="requires seeds"):
        compose(inst, PromptSpec("icp", "zero"))
    with pytest.raises(ValueError, match="must not"):
        compose(inst, PromptSpec("cot", "zero"), seeds=["x"])


def test_seed_result_accepted_directly(toy_graph):
    from seedqa.seeds import SeedQuery, mine_seeds

    result = mine_seeds(toy_graph, SeedQuery(frozenset({"a", "b"})))
    rendered = compose(toy_instance(), PromptSpec("icp", "zero"), seeds=result)
    assert "knowledge seeds: c、d" in rendered.text


def test_spec_validation():
    with pytest.raises(ValueError):
        PromptSpec("other", "zero")
    with pytest.raises(ValueError):
        PromptSpec("cot", "none")
    with pytest.raises(ValueError):
        PromptSpec("cot", "few", ())
    with pytest.raises(ValueError):
        PromptSpec("cot", "zero", token_budget=0)


def test_budget_drops_exemplars_from_end():
    inst = toy_instance()
    exemplars = default_exemplars()
    full = compose(inst, PromptSpec("cot", "few", exemplars))
    tight = PromptSpec("cot", "few", exemplars, token_budget=full.estimated_tokens - 1)
    trimmed = compose(inst, tight)
    assert trimmed.kept_exemplars < 6
    assert trimmed.estimated_tokens <= tight.token_budget
    # the kept exemplars are a prefix
    for ex in exemplars[: trimmed.kept_exemplars]:
        assert ex.question in trimmed.text
    for ex in exemplars[trimmed.kept_exemplars :]:
        assert ex.question not in trimmed.text
    # instruction and target always survive
    assert trimmed.text.startswith(COT_INSTRUCTION)
    assert inst.question in trimmed.text


def test_budget_exhaustion_raises():
    with pytest.raises(TokenBudgetError):
        compose(toy_instance(), PromptSpec("cot", "zero", token_budget=10))


def test_default_budget_value():
    assert DEFAULT_TOKEN_BUDGET == DEFAULT_CONTEXT_TOKENS - DEFAULT_RESERVED_RESPONSE_TOKENS == 3841
    assert PromptSpec("cot", "zero").token_budget == 3841


def test_max_response_tokens_floor_and_headroom():
    small = RenderedPrompt("x", 100, 0)
    assert max_response_tokens(small) == 4097 - 100
    big = RenderedPrompt("x", 4000, 0)
    assert max_response_tokens(big) == 256
    exact = RenderedPrompt("x", 3841, 0)
    assert max_response_tokens(exact) == 256


def test_compose_deterministic():
    inst = toy_instance()
    spec = PromptSpec("icp", "few", default_exemplars())
    first = compose(inst, spec, seeds=["c", "d"])
    second = compose(inst, spec, seeds=["c", "d"])
    assert first == second


def test_template_round_trip(tmp_path):
    template = default_template()
    payload = {
        "version": 1,
        "instructions": template.instructions,
        "question_block": template.question_block,
        "options_header": template.options_header,
        "option_line": template.option_line,
        "seeds_block": template.seeds_block,
        "seed_delimiter": template.seed_delimiter,
        "analysis_block": template.analysis_block,
        "answer_block": template.answer_block,
        "block_separator": template.block_separator,
        "section_separator": template.section_separator,
    }
    path = tmp_path / "tpl.json"
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    assert load_template(str(path)) == template


def test_template_version_check(tmp_path):
    path = tmp_path / "tpl.json"
    path.write_text('{"version": 2}', encoding="utf-8")
    with pytest.raises(ValueError, match="version"):
        load_template(str(path))


@pytest.mark.parametrize("payload", (
    {"version": 1, "instructions": {}},
    {**json.loads(Path(data_path("prompt_template.json")).read_text(encoding="utf-8")),
     "unknown_key": "x"},
))
def test_template_defect_names_path(tmp_path, payload):
    path = tmp_path / "tpl.json"
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=re.escape(str(path))):
        load_template(str(path))


def test_load_exemplars_file(tmp_path):
    recs = [
        {"question": "问", "options": {"A": "x", "B": "y"}, "answer": "A",
         "analysis": "解", "seeds": ["p", "q"]},
        {"question": "问2", "options": {"A": "x", "B": "y"}, "answer": "B",
         "analysis": "解2"},
    ]
    path = tmp_path / "ex.jsonl"
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in recs),
        encoding="utf-8",
    )
    loaded = load_exemplars(str(path))
    assert loaded[0].seeds == ("p", "q")
    assert loaded[1].seeds is None
    assert loaded[1].answer == "B"


def test_default_exemplars_are_the_packaged_file():
    packaged = load_exemplars(data_path("exemplars.jsonl"))
    assert packaged and default_exemplars() == packaged


def test_exemplar_validation():
    with pytest.raises(ValueError):
        Exemplar("q", {"A": "x"}, "B", "a")
    with pytest.raises(ValueError):
        Exemplar(" ", {"A": "x"}, "A", "a")


def test_template_system_message_flows_into_prompt():
    import dataclasses

    base = default_template()
    template = dataclasses.replace(base, system="回答要简明。")
    inst = toy_instance()
    spec = PromptSpec("standard_qa", "zero", template=template)
    prompt = compose(inst, spec)
    assert prompt.system == "回答要简明。"
    # the system text is not part of the user prompt but costs budget
    assert "回答要简明" not in prompt.text
    plain = compose(inst, PromptSpec("standard_qa", "zero", template=base))
    assert plain.system is None
    assert prompt.estimated_tokens == plain.estimated_tokens + estimate_tokens(
        "回答要简明。"
    )
