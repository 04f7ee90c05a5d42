from __future__ import annotations

import math
import random

from seedqa.textseg import (
    _CJK_RANGES,
    LATIN_CHARS_PER_TOKEN,
    estimate_tokens,
    finish_estimate,
    fold_estimate,
    tokenize,
)

from conftest import (
    is_cjk,
    per_char_script_runs,
    two_group_fold_estimate,
    two_group_script_runs,
    two_group_tokenize,
)


def splits_as_cjk(ch: str) -> bool:
    """Whether segmentation treats the single character ``ch`` as CJK: a
    token of its own between Latin letters, and one closed token where any
    other character opens a run of length 1.  The per-character oracle
    must agree."""
    cjk = tokenize(f"x{ch}y") == ["x", ch, "y"]
    assert fold_estimate(ch) == ((1, 0) if cjk else (0, 1)), repr(ch)
    assert is_cjk(ch) == cjk, repr(ch)
    return cjk


def fold_of_runs(runs: list[tuple[bool, str]]) -> tuple[int, int]:
    """The ``fold_estimate`` state of a text with these script runs: a
    trailing non-CJK run stays open, every other run is charged."""
    open_len = 0
    if runs and not runs[-1][0]:
        open_len = len(runs[-1][1])
        runs = runs[:-1]
    closed = sum(len(run) if cjk else math.ceil(len(run) / LATIN_CHARS_PER_TOKEN)
                 for cjk, run in runs)
    return closed, open_len


def test_is_cjk_basic():
    assert splits_as_cjk("患")
    assert splits_as_cjk("ア")
    assert splits_as_cjk("한")
    assert splits_as_cjk("。")
    assert splits_as_cjk("Ａ")  # fullwidth latin counts as CJK-width
    assert not splits_as_cjk("a")
    assert not splits_as_cjk("1")
    assert not splits_as_cjk(" ")
    assert not splits_as_cjk("é")


def test_is_cjk_extension_b():
    assert splits_as_cjk("\U00020000")


def test_script_runs_alternation():
    text = "患者有diabetes病史"
    runs = [(True, "患者有"), (False, "diabetes"), (True, "病史")]
    assert per_char_script_runs(text) == runs
    assert tokenize(text) == ["患", "者", "有", "diabetes", "病", "史"]
    # 3 CJK tokens, the 8-character Latin run closed at 2 tokens, 2 more
    assert fold_estimate(text) == fold_of_runs(runs) == (7, 0)
    assert fold_estimate(text + "ab") == (7, 2)


def test_script_runs_empty():
    assert tokenize("") == []
    assert fold_estimate("") == (0, 0)
    assert fold_estimate("", (3, 2)) == (3, 2)


def test_script_runs_reassembles_and_alternates():
    # tokens keep every non-space character in order; a CJK character is a
    # token of its own and no other token holds one
    rng = random.Random(7)
    alphabet = "abc 12患者病史。ア한"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        tokens = tokenize(text)
        assert "".join(tokens) == "".join(text.split())
        for token in tokens:
            assert token and not any(map(str.isspace, token))
            assert len(token) == 1 or not any(map(is_cjk, token)), (text, token)
        assert fold_estimate(text) == fold_of_runs(per_char_script_runs(text)), repr(text)


def test_tokenize_mixed():
    assert tokenize("患者有diabetes mellitus病史") == [
        "患", "者", "有", "diabetes", "mellitus", "病", "史",
    ]
    assert tokenize("a b") == ["a", "b"]
    assert tokenize("") == []


def test_estimate_tokens_examples():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    assert estimate_tokens("患者") == 2
    assert estimate_tokens("患者ab") == 3


def test_estimate_tokens_monotone_and_subadditive():
    rng = random.Random(11)
    alphabet = "abcdefg 患者病史高血压。"
    for _ in range(300):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        joined = estimate_tokens(a + b)
        assert joined >= estimate_tokens(a)
        assert joined >= estimate_tokens(b)
        assert joined <= estimate_tokens(a) + estimate_tokens(b)


def test_estimate_tokens_positive_for_nonempty():
    assert estimate_tokens("x") == 1
    assert estimate_tokens("。") == 1


def _boundary_alphabet() -> list[str]:
    """Each CJK block edge and its neighbours, lone surrogates, the last
    code point, control whitespace and plain Latin."""
    points = {cp + d for lo, hi in _CJK_RANGES for cp in (lo, hi) for d in (-1, 0, 1)}
    points |= {0xD800, 0xDB7F, 0xDBFF, 0xDC00, 0xDE00, 0xDFFF, 0x10FFFF}
    return [chr(cp) for cp in sorted(points)] + list("\n\t abcXYZ09.,")


def test_script_runs_match_per_char_oracle_at_block_edges():
    rng = random.Random(3)
    alphabet = _boundary_alphabet()
    for _ in range(4000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        runs = per_char_script_runs(text)
        assert fold_estimate(text) == fold_of_runs(runs), repr(text)
        words = [t for cjk, run in runs for t in (run if cjk else run.split())]
        assert tokenize(text) == words
        assert estimate_tokens(text) == sum(
            len(run) if cjk else math.ceil(len(run) / LATIN_CHARS_PER_TOKEN)
            for cjk, run in runs
        )


def test_estimate_of_a_join_is_the_fold_of_its_pieces():
    rng = random.Random(4)
    alphabet = _boundary_alphabet()
    for _ in range(3000):
        pieces = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
                  for _ in range(rng.randint(1, 4))]
        state = (0, 0)
        for piece in pieces:
            state = fold_estimate(piece, state)
        assert finish_estimate(state) == estimate_tokens("".join(pieces)), pieces


def test_one_class_split_matches_two_group_oracle():
    rng = random.Random(5)
    alphabet = _boundary_alphabet()
    astral = [chr(cp) for cp in (0x20000, 0x2A6D6, 0x2F800, 0x2FFFF, 0x1F600, 0x30000)]
    cjk = [ch for ch in alphabet + astral if is_cjk(ch)]
    other = [ch for ch in alphabet + astral if not is_cjk(ch)]
    texts = ["", " ", "患", "a", "\U00020000", "\U00030000"]
    for case in range(4000):
        # each start and end script meets every other, empty text included
        first, last = (cjk, other)[case % 2], (cjk, other)[case // 2 % 2]
        middle = "".join(rng.choice(alphabet + astral) for _ in range(rng.randint(0, 20)))
        texts.append(rng.choice(first) + middle + rng.choice(last))
    for text in texts:
        assert fold_estimate(text) == fold_of_runs(two_group_script_runs(text)), repr(text)
        assert tokenize(text) == two_group_tokenize(text), repr(text)
        assert estimate_tokens(text) == finish_estimate(two_group_fold_estimate(text))
        state = (rng.randint(0, 9), rng.randint(0, 9))
        assert fold_estimate(text, state) == two_group_fold_estimate(text, state), (text, state)
