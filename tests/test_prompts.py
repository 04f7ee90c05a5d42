from __future__ import annotations

import dataclasses
import functools
import json
import random
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from seedqa.corpus import DatasetFormatError, Instance, data_path
from seedqa.prompts import (
    DEFAULT_CONTEXT_TOKENS,
    DEFAULT_RESERVED_RESPONSE_TOKENS,
    MODES,
    Exemplar,
    PromptSpec,
    PromptTemplate,
    TokenBudgetError,
    compose,
    default_exemplars,
    default_template,
    load_exemplars,
    load_template,
)
from seedqa.textseg import estimate_tokens

from conftest import per_call_compose, reestimating_compose

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
        PromptSpec("cot", "zero", context_tokens=256)  # leaves no prompt budget
    # the reply needs at least one token; 0 or less used to reach max_tokens
    for reserved in (0, -5):
        with pytest.raises(ValueError, match="reserved_tokens"):
            PromptSpec("cot", "zero", context_tokens=100, reserved_tokens=reserved)


def test_budget_drops_exemplars_from_end():
    inst = toy_instance()
    exemplars = default_exemplars()
    full = compose(inst, PromptSpec("cot", "few", exemplars))
    tight = PromptSpec("cot", "few", exemplars, context_tokens=full.estimated_tokens - 1
                       + DEFAULT_RESERVED_RESPONSE_TOKENS)
    trimmed = compose(inst, tight)
    assert trimmed.kept_exemplars < 6
    assert trimmed.estimated_tokens <= tight.token_budget == full.estimated_tokens - 1
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
        compose(toy_instance(), PromptSpec("cot", "zero", context_tokens=11, reserved_tokens=1))


# what a prompt piece may start or end with: the estimate charges CJK per
# character and merges every other class into runs across seams
PIECE_EDGES = {
    "cjk": "患者高血压。，",
    "latin": "HbAcaspirin ",
    "digit": "0123456789",
    "fullwidth": "ＡＢ１２（）",
    "astral": "\U00020000\U0002A6D6\U0002F800",
}
PIECE_CHARS = "".join(PIECE_EDGES.values()) + "\n"
SECTION_SEPARATORS = ("\n\n", "。\n", "。", "--", "")


def fuzz_piece(rng, edges=None):
    if edges is None and rng.random() < 0.1:
        return ""
    first, last = edges or (rng.choice(list(PIECE_EDGES)), rng.choice(list(PIECE_EDGES)))
    middle = "".join(rng.choice(PIECE_CHARS) for _ in range(rng.randint(0, 6)))
    return rng.choice(PIECE_EDGES[first]) + middle + rng.choice(PIECE_EDGES[last])


def fuzz_template(rng, instruction_edges, section_separator, with_system):
    piece = functools.partial(fuzz_piece, rng)
    return PromptTemplate(
        instructions={m: fuzz_piece(rng, instruction_edges) for m in MODES},
        question_block=piece() + "{question}" + piece(),
        options_header=piece(),
        option_line=piece() + "{label}" + piece() + "{text}" + piece(),
        seeds_block=piece() + "{seeds}" + piece(),
        seed_delimiter=rng.choice(("、", ", ", "")),
        analysis_block=piece() + "{analysis}" + piece(),
        answer_block=piece() + "{answer}" + piece(),
        block_separator=rng.choice(("\n", "。", "")),
        section_separator=section_separator,
        system=fuzz_piece(rng) if with_system else None,
    )


def compose_outcome(compose_fn, inst, spec, seeds):
    try:
        return compose_fn(inst, spec, seeds)
    except TokenBudgetError as exc:
        return str(exc)


EDGE_PAIRS = [(a, b) for a in PIECE_EDGES for b in PIECE_EDGES]


def fuzz_spec_parts(rng, case):
    """Template, mode and up to five exemplars of one fuzz case: every pair
    of instruction edges meets every separator, with and without a system
    message."""
    round_, edge = divmod(case, len(EDGE_PAIRS))
    template = fuzz_template(rng, EDGE_PAIRS[edge],
                             SECTION_SEPARATORS[round_ % len(SECTION_SEPARATORS)],
                             with_system=round_ >= len(SECTION_SEPARATORS))
    mode = MODES[case % len(MODES)]
    exemplars = tuple(
        Exemplar(
            question=fuzz_piece(rng) + "?",
            options={"A": fuzz_piece(rng), "B": fuzz_piece(rng)},
            answer=rng.choice("AB"),
            analysis=fuzz_piece(rng),
            seeds=tuple(fuzz_piece(rng) for _ in range(rng.randint(0, 3))),
        )
        for _ in range(rng.randint(0, 5))
    )
    return template, mode, exemplars


def fuzz_target(rng, mode):
    """A target question and, in icp mode, its seeds."""
    inst = SimpleNamespace(question=fuzz_piece(rng),
                           options={"A": fuzz_piece(rng), "C": fuzz_piece(rng)})
    seeds = [fuzz_piece(rng) for _ in range(rng.randint(0, 3))] if mode == "icp" else None
    return inst, seeds


def test_prefix_fitting_equals_reestimating_oracle_fuzz():
    rng = random.Random(12)
    kept_seen, refused = set(), 0
    for case in range(250):
        template, mode, exemplars = fuzz_spec_parts(rng, case)
        inst, seeds = fuzz_target(rng, mode)

        def spec_for(budget):
            return PromptSpec(mode, "few" if exemplars else "zero", exemplars,
                              context_tokens=budget + 1, reserved_tokens=1, template=template)

        # every estimate the oracle can settle on, from all exemplars down
        # to none; each and one below it is a budget threshold
        estimates, budget = [], 10**6
        while budget >= 1:
            outcome = compose_outcome(reestimating_compose, inst, spec_for(budget), seeds)
            if isinstance(outcome, str):
                break
            estimates.append(outcome.estimated_tokens)
            budget = outcome.estimated_tokens - 1
        for budget in sorted({b for e in estimates for b in (e, e - 1) if b >= 1}):
            want = compose_outcome(reestimating_compose, inst, spec_for(budget), seeds)
            assert compose_outcome(compose, inst, spec_for(budget), seeds) == want, (case, budget)
            if isinstance(want, str):
                refused += 1
            else:
                kept_seen.add(want.kept_exemplars)
    # budgets reached every prefix length, and below the smallest prompt
    assert kept_seen == set(range(6)) and refused > 0


def test_spec_reused_across_instances_equals_per_call_oracle_fuzz():
    # one spec composes several targets in turn, so all but the first reuse
    # the exemplar blocks and prefix estimates folded for the spec
    rng = random.Random(13)
    kept_seen, refused = set(), 0
    for case in range(250):
        template, mode, exemplars = fuzz_spec_parts(rng, case)
        spec = PromptSpec(mode, "few" if exemplars else "zero", exemplars,
                          context_tokens=rng.randint(2, 400), reserved_tokens=1,
                          template=template)
        twin = dataclasses.replace(spec)
        for _ in range(4):
            inst, seeds = fuzz_target(rng, mode)
            want = compose_outcome(per_call_compose, inst, spec, seeds)
            assert compose_outcome(compose, inst, spec, seeds) == want, case
            if isinstance(want, str):
                refused += 1
            else:
                kept_seen.add(want.kept_exemplars)
        # the cache is no field: composing leaves the spec equal to an
        # unused copy in every dataclass view
        assert spec == twin and repr(spec) == repr(twin)
        assert dataclasses.asdict(spec) == dataclasses.asdict(twin)
        assert [f.name for f in dataclasses.fields(spec)] == [
            "mode", "shots", "exemplars", "context_tokens", "reserved_tokens", "template"]
    assert kept_seen == set(range(6)) and refused > 0


def test_default_budget_value():
    spec = PromptSpec("cot", "zero")
    assert (spec.context_tokens, spec.reserved_tokens) == (4097, 256)
    assert (DEFAULT_CONTEXT_TOKENS, DEFAULT_RESERVED_RESPONSE_TOKENS) == (4097, 256)
    assert spec.token_budget == 3841


def test_max_response_tokens_floor_and_headroom():
    inst = toy_instance()
    small = compose(inst, PromptSpec("cot", "zero"))
    assert small.max_tokens == 4097 - small.estimated_tokens
    # a prompt that fills its budget exactly leaves the reserved tokens
    exact = compose(inst, PromptSpec("cot", "zero", reserved_tokens=7,
                                     context_tokens=small.estimated_tokens + 7))
    assert exact.estimated_tokens == small.estimated_tokens
    assert exact.max_tokens == 7


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


_PACKAGED_TEMPLATE = json.loads(Path(data_path("prompt_template.json")).read_text(encoding="utf-8"))


@pytest.mark.parametrize("payload", (
    {"version": 1, "instructions": {}},
    {**_PACKAGED_TEMPLATE, "unknown_key": "x"},
    # a field of the wrong type fails here, not later inside compose
    {**_PACKAGED_TEMPLATE, "instructions": {**_PACKAGED_TEMPLATE["instructions"], "cot": 5}},
    {**_PACKAGED_TEMPLATE, "instructions": list(MODES)},
    {**_PACKAGED_TEMPLATE, "question_block": 5},
    {**_PACKAGED_TEMPLATE, "system": ["be brief"]},
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
