"""Annotation CSV parsing, conflict matrices, and rule disagreement."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import string

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expertfuse.corpus import (
    DEMO_EXPERTS,
    DEMO_SEED,
    DEMO_TILES,
    Corpus,
    CorpusError,
    conflict_matrix,
    decision_difference,
    expert_pair,
    generate_demo_corpus,
    load_annotations,
    parse_annotations,
    tile_mass,
)
from expertfuse.corpus import _read_plain, _read_rows
from expertfuse.decision import decide
from expertfuse.expert_models import (
    DEFAULT_WEIGHTS,
    AnnotationEntry,
    CertaintyWeights,
    TileAnnotation,
    sediment_frame,
)
from expertfuse.fusion import combine, combine_conjunctive
from expertfuse.lattice import Model, make_frame

HEADER = "tile_id,expert_id,class,certainty_level,proportion"

SMALL = f"""{HEADER}
t1,e1,sand,1,1.0
t1,e2,silt,1,1.0
t2,e1,sand,2,0.5
t2,e2,sand,1,1.0
"""


@pytest.fixture(scope="module")
def small_corpus():
    return parse_annotations(SMALL)


class TestParsing:
    def test_groups_by_tile_and_expert(self, small_corpus):
        assert small_corpus.tiles == ("t1", "t2")
        assert small_corpus.experts == ("e1", "e2")
        note = small_corpus.annotation("t2", "e1")
        assert note.entries[0].label == "sand"
        assert note.entries[0].level == 2
        assert note.entries[0].proportion == 0.5
        assert expert_pair(small_corpus).tiles == ("t1", "t2")

    def test_equality_and_hash_follow_the_annotations(self, small_corpus):
        again = parse_annotations(SMALL)
        assert again == small_corpus
        assert hash(again) == hash(small_corpus)
        assert small_corpus.__eq__(5) is NotImplemented
        assert (small_corpus == 5) is False

    def test_unknown_pair_raises(self, small_corpus):
        with pytest.raises(KeyError):
            small_corpus.annotation("t9", "e1")

    def test_accepts_padding_and_blank_lines(self):
        lines = [
            HEADER,
            " t1 , e1 , sand , 1 , 0.5 ",
            "",
            "t1,e2,silt,2,0.25",
        ]
        corpus = parse_annotations("\n".join(lines) + "\n")
        assert corpus.annotation("t1", "e1").entries[0].proportion == 0.5
        assert corpus.annotation("t1", "e2").entries[0].level == 2

    def test_a_respelled_or_returning_key_joins_its_annotation(self):
        text = (f"{HEADER}\nt1,e1,sand,1,0.25\n t1 , e1 ,silt,2,0.25\n"
                "t1,e2,silt,1,0.5\nt1,e1,rock,3,0.5\n")
        corpus = parse_annotations(text)
        assert corpus.keys == (("t1", "e1"), ("t1", "e2"))
        assert corpus.owner.tolist() == [0, 0, 1, 0]
        assert corpus.annotation("t1", "e1").entries == (
            ("sand", 1, 0.25), ("silt", 2, 0.25), ("rock", 3, 0.5)
        )
        with pytest.raises(CorpusError, match="^line 5: proportions for tile 't1' by expert"):
            parse_annotations(text.replace("rock,3,0.5", "rock,3,0.75"))

    def test_multiple_entries_accumulate_per_expert(self):
        text = f"{HEADER}\nt1,e1,sand,1,0.5\nt1,e1,silt,3,0.4\n"
        corpus = parse_annotations(text)
        assert len(corpus.annotation("t1", "e1").entries) == 2

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "notes.csv"
        path.write_text(SMALL, encoding="utf-8")
        corpus = load_annotations(str(path))
        assert corpus.tiles == ("t1", "t2")

    def test_custom_frame(self):
        frame = make_frame(("A", "B"))
        corpus = parse_annotations(f"{HEADER}\nt1,e1,A,1,0.5\n", frame=frame)
        assert corpus.frame == frame


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(CorpusError, match="line 1: empty input"):
            parse_annotations("")

    @pytest.mark.parametrize("text, kind", [
        ([HEADER, "t1,e1,sand,1,0.5"], "list"),
        (f"{HEADER}\nt1,e1,sand,1,0.5\n".encode("ascii"), "bytes"),
        (io.StringIO(f"{HEADER}\nt1,e1,sand,1,0.5\n"), "StringIO"),
        (None, "NoneType"),
    ], ids=["lines", "bytes", "stream", "none"])
    def test_anything_but_text_is_refused(self, text, kind):
        with pytest.raises(TypeError, match=f"^annotation text must be a str, got {kind}$"):
            parse_annotations(text)

    def test_bad_header(self):
        with pytest.raises(CorpusError, match="line 1: bad header"):
            parse_annotations("tile,expert,class,level,share\n")

    def test_wrong_field_count(self):
        with pytest.raises(CorpusError, match="line 2: expected 5 fields, got 3"):
            parse_annotations(f"{HEADER}\nt1,e1,sand\n")

    def test_unknown_class(self):
        with pytest.raises(CorpusError, match="line 3: unknown class 'lava'"):
            parse_annotations(f"{HEADER}\nt1,e1,sand,1,0.5\nt1,e2,lava,1,0.5\n")

    def test_level_not_an_integer(self):
        with pytest.raises(CorpusError, match="line 2: certainty level 'high'"):
            parse_annotations(f"{HEADER}\nt1,e1,sand,high,0.5\n")
        with pytest.raises(CorpusError, match=r"^line 2: certainty level '1\.0' is not"):
            parse_annotations(f"{HEADER}\nt1,e1,sand,1.0,0.5\n")

    def test_level_out_of_ladder(self):
        with pytest.raises(CorpusError, match="line 2: certainty level must be 1, 2 or 3"):
            parse_annotations(f"{HEADER}\nt1,e1,sand,4,0.5\n")

    def test_proportion_not_a_number(self):
        with pytest.raises(CorpusError, match="line 2: proportion 'half'"):
            parse_annotations(f"{HEADER}\nt1,e1,sand,1,half\n")

    def test_proportion_out_of_range(self):
        with pytest.raises(CorpusError, match=r"line 2: proportion must lie in \[0, 1\]"):
            parse_annotations(f"{HEADER}\nt1,e1,sand,1,1.5\n")
        # non-finite values, on line 3 after a blank line
        for text in ("nan", "inf", "-inf"):
            with pytest.raises(
                CorpusError, match=rf"^line 3: proportion must lie in \[0, 1\], got {text}$"
            ):
                parse_annotations(f"{HEADER}\n\nt1,e1,sand,1,{text}\n")

    def test_group_proportions_capped_at_one(self):
        text = f"{HEADER}\nt1,e1,sand,1,0.7\nt1,e1,silt,1,0.4\n"
        with pytest.raises(CorpusError, match="line 3: proportions for tile 't1'"):
            parse_annotations(text)

    def test_group_sum_on_the_tolerance_edge(self):
        # 1 + 0.5e-9 lies inside SUM_TOLERANCE (1e-9), 1 + 2e-9 outside it
        corpus = parse_annotations(f"{HEADER}\nt1,e1,sand,1,0.5\nt1,e1,silt,1,0.5000000005\n")
        assert corpus.proportion.tolist() == [0.5, 0.5000000005]
        text = f"{HEADER}\nt1,e1,sand,1,0.5\n t1 , e1 ,silt,1,0.500000002\n"
        with pytest.raises(CorpusError) as refused:
            parse_annotations(text)
        assert str(refused.value) == (
            "line 3: proportions for tile 't1' by expert 'e1' sum to 1.0000000020000002 > 1"
        )

    def test_padded_bad_fields_report_the_stripped_text(self):
        cases = (
            ("t1,e1,sand,1, half ", "line 2: proportion 'half' is not a number"),
            ("t1,e1,sand, 4 ,0.5", "line 2: certainty level must be 1, 2 or 3, got 4"),
            ("t1,e1,sand, x ,0.5", "line 2: certainty level 'x' is not an integer"),
            ("t1,e1, lava ,1,0.5", "line 2: unknown class 'lava'"),
        )
        for row, message in cases:
            with pytest.raises(CorpusError) as refused:
                parse_annotations(f"{HEADER}\n{row}\n")
            assert str(refused.value) == message

    def test_the_first_fault_of_a_line_is_reported(self):
        # field count, class, level, proportion, running sum
        cases = (
            ("t1,e1,lava,4,half,0", "expected 5 fields, got 6"),
            ("t1,e1,lava,4,half", "unknown class 'lava'"),
            ("t1,e1,sand,4,half", "certainty level must be 1, 2 or 3, got 4"),
            ("t1,e1,sand,x,1.5", "certainty level 'x' is not an integer"),
            ("t1,e1,sand,1,1.5", "proportion must lie in [0, 1], got 1.5"),
            ("t1,e1,sand,1,0.75", "proportions for tile 't1' by expert 'e1' sum to 1.25 > 1"),
        )
        for row, message in cases:
            with pytest.raises(CorpusError) as refused:
                parse_annotations(f"{HEADER}\nt1,e1,silt,1,0.5\n{row}\n")
            assert str(refused.value) == f"line 3: {message}"

    def test_an_empty_tile_or_expert_id(self):
        cases = (
            (",e1,sand,1,0.5", "line 2: empty tile id"),
            ("t1,,silt,1,0.5", "line 2: empty expert id"),
            ("  ,e1,sand,1,0.5", "line 2: empty tile id"),
            (",e1,sand,1,1.5", "line 2: proportion must lie in [0, 1], got 1.5"),
        )
        for row, message in cases:
            with pytest.raises(CorpusError) as refused:
                parse_annotations(f"{HEADER}\n{row}\n")
            assert str(refused.value) == message

    def test_proportion_padded_with_separators(self):
        # str.strip() removes U+001C..U+001F; float() does not skip them
        corpus = parse_annotations(f"{HEADER}\nt1,e1,sand,1,\x1c0.25\x1f\n")
        assert corpus.proportion.tolist() == [0.25]
        with pytest.raises(CorpusError, match=r"^line 2: proportion 'half' is not a number$"):
            parse_annotations(f"{HEADER}\nt1,e1,sand,1,\x1chalf\x1c\n")

    def test_text_the_csv_module_cannot_split_is_located(self, tmp_path):
        # it was once a bare _csv.Error, which is no ValueError
        too_long = r"^line 2: field larger than field limit \(131072\)$"
        with pytest.raises(CorpusError, match=too_long):
            parse_annotations(f"{HEADER}\n{'t' * 140_000},e1,sand,1,0.5\n")
        # a string splits its lines as the file of the same text does
        text = f"{HEADER}\nt1,e1,sand,1,0.5\nt1,e2,sa\rnd,1,0.5\n"
        path = tmp_path / "notes.csv"
        path.write_bytes(text.encode("ascii"))
        for read in (lambda: parse_annotations(text), lambda: load_annotations(str(path))):
            with pytest.raises(CorpusError) as refused:
                read()
            assert str(refused.value) == "line 3: expected 5 fields, got 3"

    @pytest.mark.parametrize("row, message", [
        ("t2,e1,lava,1,0.5", "line 4: unknown class 'lava'"),
        ("t2,e1,sand,1,half", "line 4: proportion 'half' is not a number"),
    ], ids=["unknown-class", "proportion-not-a-number"])
    def test_a_row_after_a_multi_line_id_names_its_line(self, tmp_path, row, message):
        # the quoted id spans lines 2 and 3; the row after it was once line 3
        text = f'{HEADER}\n"t\n1",e1,sand,1,0.5\n{row}\n'
        path = tmp_path / "notes.csv"
        path.write_text(text, encoding="utf-8")
        for read in (lambda: parse_annotations(text), lambda: load_annotations(str(path))):
            with pytest.raises(CorpusError) as refused:
                read()
            assert str(refused.value) == message

    def test_corpus_error_is_a_value_error(self):
        assert issubclass(CorpusError, ValueError)


_TILE_IDS = ("t1", "t 2", "t,3", 'q"4', "é5")
_LEVEL_SPELLINGS = ("{}", "0{}", "+{}", " {} ")


@st.composite
def _annotation_rows(draw):
    """Valid CSV rows as text fields, spelled and padded in the ways the
    format allows; each (tile, expert) group keeps its proportions ≤ 1."""
    labels = sediment_frame().labels
    sums: dict[tuple[str, str], int] = {}
    rows = []
    for _ in range(draw(st.integers(0, 25))):
        tile = draw(st.sampled_from(_TILE_IDS))
        expert = draw(st.sampled_from(("e1", "e2", "e3")))
        parts = draw(st.integers(0, 1000 - sums.get((tile, expert), 0)))
        sums[(tile, expert)] = sums.get((tile, expert), 0) + parts
        fields = [
            tile,
            expert,
            draw(st.sampled_from(labels)),
            draw(st.sampled_from(_LEVEL_SPELLINGS)).format(draw(st.integers(1, 3))),
            draw(st.sampled_from((f"{parts / 1000}", f"{parts / 1000:.4f}", f"{parts}e-3"))),
        ]
        pads = draw(st.lists(st.sampled_from(("", " ", "  ")), min_size=10, max_size=10))
        rows.append([pads[2 * i] + f + pads[2 * i + 1] for i, f in enumerate(fields)])
    return rows


def _csv_text(rows, quoting, blank_after):
    out = io.StringIO()
    writer = csv.writer(out, quoting=quoting, lineterminator="\n")
    writer.writerow(HEADER.split(","))
    for i, row in enumerate(rows):
        writer.writerow(row)
        if i in blank_after:
            out.write("\n")
    return out.getvalue()


def _grouped_with_csv(text):
    """Annotations the plain way: csv rows, stripped, grouped in order."""
    groups: dict[tuple[str, str], list[AnnotationEntry]] = {}
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        if row:
            tile, expert, label, level, proportion = (f.strip() for f in row)
            groups.setdefault((tile, expert), []).append(
                AnnotationEntry(label, int(level), float(proportion))
            )
    return tuple(TileAnnotation(t, e, tuple(entries)) for (t, e), entries in groups.items())


class TestColumnsMatchAPlainGrouping:
    @given(
        _annotation_rows(),
        st.sampled_from((csv.QUOTE_MINIMAL, csv.QUOTE_ALL)),
        st.sets(st.integers(0, 25), max_size=4),
    )
    def test_annotations_entry_for_entry(self, rows, quoting, blank_after):
        text = _csv_text(rows, quoting, blank_after)
        expected = _grouped_with_csv(text)
        corpus = parse_annotations(text)
        assert corpus.annotations == expected
        assert corpus.tiles == tuple(dict.fromkeys(a.tile_id for a in expected))
        assert corpus.experts == tuple(dict.fromkeys(a.expert_id for a in expected))
        assert corpus.keys == tuple((a.tile_id, a.expert_id) for a in expected)

    def test_padded_quoted_and_respelled_fields(self):
        text = (
            f"{HEADER}\n"
            '" t,1 ",e1,"sand ",02,0.25\n'
            "\n"
            "t2 , e1 ,silt,+3, 0.5\n"
            't2,e1,"silt"," 1 ",.125\n'
        )
        corpus = parse_annotations(text)
        assert corpus.annotations == (
            TileAnnotation("t,1", "e1", (("sand", 2, 0.25),)),
            TileAnnotation("t2", "e1", (("silt", 3, 0.5), ("silt", 1, 0.125))),
        )


_PLAIN_ID = st.text(string.ascii_letters + string.digits + " #'-./:_", min_size=1, max_size=12)


@st.composite
def _plain_text(draw):
    """Plain CSV text: no padding, no quoting, "\n" line ends, the trailing
    one now and then left out; each (tile, expert) group keeps its
    proportions ≤ 1, and a key may come back after another key."""
    ident = _PLAIN_ID.filter(lambda text: text == text.strip())
    tiles = draw(st.lists(ident | st.just("t" * 300), min_size=1, max_size=4, unique=True))
    experts = draw(st.lists(ident, min_size=1, max_size=3, unique=True))
    labels = sediment_frame().labels
    sums: dict[tuple[str, str], int] = {}
    lines = [HEADER]
    for _ in range(draw(st.integers(1, 25))):
        key = (draw(st.sampled_from(tiles)), draw(st.sampled_from(experts)))
        parts = draw(st.integers(0, 1000 - sums.get(key, 0)))
        sums[key] = sums.get(key, 0) + parts
        proportion = draw(st.sampled_from((f"{parts / 1000}", f"{parts / 1000:.4f}",
                                           f"{parts}e-3")))
        lines.append(",".join((*key, draw(st.sampled_from(labels)),
                               str(draw(st.integers(1, 3))), proportion)))
    return "\n".join(lines) + draw(st.sampled_from(("\n", "")))


def _columns(corpus):
    """Keys and ids, then each array's name, dtype and bytes."""
    return corpus.keys, corpus.tiles, corpus.experts, tuple(
        (name, getattr(corpus, name).dtype, getattr(corpus, name).tobytes())
        for name in ("key_tile", "key_expert", "owner", "class_index", "level", "proportion")
    )


def _row_loop(text, frame):
    return _read_rows(text, frame)


def _outcome(read):
    try:
        return _columns(read())
    except CorpusError as exc:
        return str(exc)


def _rows(*rows, end="\n"):
    return end.join((HEADER, *rows)) + end


_LONG = "t" * 200


class TestColumnarReader:
    """Plain text takes the columnar reader, which gives the row loop's corpus."""

    @given(_plain_text())
    def test_plain_text_takes_the_columnar_reader(self, text):
        frame = sediment_frame()
        columnar = _read_plain(text, frame)
        assert columnar is not None
        assert _columns(columnar) == _columns(_row_loop(text, frame))

    @pytest.mark.parametrize("text", [
        pytest.param(_rows(f"{_LONG},e1,sand,1,0.5", f"{_LONG},{_LONG}x,silt,2,0.25"),
                     id="ids-of-200-chars"),
        pytest.param(_rows(f"{'t' * 100_000},e1,sand,1,0.5", "t2,e1,silt,2,0.25"),
                     id="id-of-100000-chars"),
        pytest.param(_rows(f"{'t' * 140_000},e1,sand,1,0.5"), id="id-past-the-csv-limit"),
        pytest.param(_rows("t\x00,e1,sand,1,0.5", "t,e1,silt,1,0.5"), id="nul"),
        pytest.param(_rows("t1,e1,sa\rnd,1,0.5"), id="carriage-return"),
        pytest.param(_rows("t1,e1,sand,1,0.5", "t1,e2,silt,1,0.5", end="\r\n"), id="crlf"),
        pytest.param(_rows('"t,1",e1,sand,1,0.5', 'q"4,e1,"silt",1,0.25'), id="quote"),
        pytest.param(_rows("t 1,e1,sand,1,0.5", " t 1 , e1 ,silt,1,0.25"), id="space"),
        pytest.param(_rows("t1,e1, sand,1,0.5"), id="padded-class"),
        pytest.param(_rows("t1,e1,sand,1,0.5", "é5,e1,silt,1,0.5"), id="non-ascii"),
        *(pytest.param(_rows(f"t1,e1,sand,1,{field}"), id=f"proportion-{field}")
          for field in ("nan", "1.5", "+1", "01", "1.0", "-0.5", "-0", "0.2_5", "")),
        *(pytest.param(_rows(f"t1,e1,sand,{field},0.5"), id=f"level-{field}")
          for field in ("nan", "1.5", "+1", "01", "1.0", "4")),
        pytest.param(_rows("t1,e1,sand,1,0.25", "t1,e2,silt,1,0.25", "t1,e1,rock,3,0.25"),
                     id="a-key-returns"),
        pytest.param(_rows("t1,e1,sand,1,0.25", "t1,e2,silt,1,0.5", "t1,e1,rock,3,0.875"),
                     id="a-returning-key-past-one"),
        pytest.param(_rows(" t1,e1,sand,1,0.25", "t1,e1,silt,1,0.25", "t1, e2,rock,1,0.5",
                           "t2,e2 ,sand,2,0.5", "t1,e2,silt,3,0.25"),
                     id="ids-that-strip-alike"),
        pytest.param(_rows("t1,e1,sand,1,0.25", "t2,e1,silt,1,0.5", "t2,e2,rock,1,0.5",
                           "t1,e2,sand,2,0.5", "t1,e1,rock,3,0.25"),
                     id="a-key-returns-after-other-keys"),
        pytest.param(_rows("t2,e3,rock,1,0.5", "t1,e1,sand,1,0.5", "t1,e2,silt,1,0.5",
                           "t2,e1,sand,2,0.25", "t1,e3,silt,3,0.75", "t2,e2,rock,1,1.0"),
                     id="three-experts"),
        pytest.param(_rows("t1,e1,sand,1,0.5", "t1,e1,silt,1,0.5000000005"),
                     id="sum-inside-the-tolerance"),
        pytest.param(_rows("t1,e1,sand,1,0.5", "t1,e1,silt,1,0.500000002"),
                     id="sum-past-the-tolerance"),
        pytest.param(_rows(",e1,sand,1,0.5"), id="empty-tile-id"),
        pytest.param(_rows("t1,e1,sand,1,0.5", "", "t1,e2,silt,1,0.5"), id="blank-line"),
        pytest.param(_rows("t1,e1,sand,1,0.5", ""), id="blank-last-line"),
        pytest.param(_rows("t1,e1,sand,1,0.5", "t1,e2,silt,1,0.5", end="\n")[:-1],
                     id="no-trailing-newline"),
        pytest.param(_rows("t1,e1,sand,1", "t1,e2,silt,1,0.5,x"), id="four-then-six-fields"),
        pytest.param(f"{HEADER}\n", id="header-only"),
        pytest.param(HEADER, id="header-only-no-newline"),
    ])
    def test_the_same_corpus_or_error_as_the_row_loop(self, text):
        frame = sediment_frame()
        assert _outcome(lambda: parse_annotations(text, frame)) == _outcome(
            lambda: _row_loop(text, frame))

    def test_a_table_far_larger_than_the_text_is_handed_over(self):
        # loadtxt would give all 201 entries the long id's 100 000 bytes
        text = _rows(f"{'t' * 100_000},e1,sand,1,0.5",
                     *(f"t{k},e1,sand,1,0.5" for k in range(200)))
        assert _read_plain(text, sediment_frame()) is None
        assert _columns(parse_annotations(text)) == _columns(_row_loop(text, sediment_frame()))

    def test_a_padded_frame_label_is_refused(self):
        # A frame label ' B' once matched no field, since the row loop strips
        # ' B' to 'B'; now no frame holds it, and a padded field finds 'B'.
        with pytest.raises(ValueError, match="^label ' B' has surrounding whitespace$"):
            make_frame(("A", " B"))
        text = _rows("t1,e1, B,1,0.5")
        frame = make_frame(("A", "B"))
        assert _columns(parse_annotations(text, frame)) == _columns(_row_loop(text, frame))

    def test_the_shipped_corpus_takes_the_columnar_reader(self, repo_root):
        text = (repo_root / "data" / "demo_corpus.csv").read_text(encoding="utf-8")
        columnar = _read_plain(text, sediment_frame())
        assert columnar is not None
        assert _columns(columnar) == _columns(_row_loop(text, sediment_frame()))
        # a CRLF, fully quoted copy takes the row loop to the same corpus
        out = io.StringIO()
        csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(
            csv.reader(io.StringIO(text)))
        assert _read_plain(out.getvalue(), sediment_frame()) is None
        assert _columns(parse_annotations(out.getvalue())) == _columns(columnar)


class TestExpertPair:
    # t2 appears first for e2 and t3 only after e1 listed t1..t2
    INTERLEAVED = (f"{HEADER}\nt2,e2,sand,1,0.5\nt1,e1,silt,2,0.5\nt1,e3,rock,1,1.0\n"
                   "t3,e1,sand,3,0.25\nt2,e1,rock,1,0.5\nt3,e2,silt,1,1.0\n"
                   "t1,e2,sand,1,0.125\n")

    def test_fields(self, small_corpus):
        pair = expert_pair(small_corpus)
        assert pair.labels == small_corpus.frame.labels
        assert pair.experts == ("e1", "e2")
        assert pair.tiles == ("t1", "t2")
        sand, silt = pair.labels.index("sand"), pair.labels.index("silt")
        expected_a = np.zeros((2, len(pair.labels)))
        expected_a[0, sand] = 2.0 / 3.0
        expected_a[1, sand] = 0.5 * 0.5
        expected_b = np.zeros((2, len(pair.labels)))
        expected_b[0, silt] = expected_b[1, sand] = 2.0 / 3.0
        np.testing.assert_array_equal(pair.a, expected_a)
        np.testing.assert_array_equal(pair.b, expected_b)

    def test_tiles_follow_first_appearance_for_either_expert(self):
        corpus = parse_annotations(self.INTERLEAVED)
        for experts in (("e1", "e2"), ("e2", "e1")):
            pair = expert_pair(corpus, experts)
            assert pair.tiles == ("t2", "t1", "t3")
            sand, silt = pair.labels.index("sand"), pair.labels.index("silt")
            e1, e2 = (pair.a, pair.b) if experts[0] == "e1" else (pair.b, pair.a)
            assert e1[1, silt] == 0.5 * 0.5 and e1[2, sand] == 0.25 / 3.0
            assert e2[0, sand] == 0.5 * 2.0 / 3.0 and e2[2, silt] == 2.0 / 3.0

    def test_swapping_the_experts_swaps_the_arrays_exactly(self):
        corpus = parse_annotations(_uniform_corpus_text(5, 80, sediment_frame().labels, 4))
        forward = expert_pair(corpus, ("e1", "e2"))
        backward = expert_pair(corpus, ("e2", "e1"))
        assert backward.experts == forward.experts[::-1]
        assert backward.tiles == forward.tiles
        np.testing.assert_array_equal(backward.a, forward.b)
        np.testing.assert_array_equal(backward.b, forward.a)

    def test_arrays_are_read_only(self, small_corpus):
        pair = expert_pair(small_corpus)
        for array in (pair.a, pair.b):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.a = np.zeros_like(pair.a)

    def test_refusals_keep_their_messages(self, small_corpus):
        free = parse_annotations(f"{HEADER}\nt1,e1,A,1,0.5\nt1,e2,B,1,0.5\n",
                                 frame=make_frame(("A", "B"), Model.FREE))
        with pytest.raises(ValueError, match="exclusive frame, got the free model"):
            expert_pair(free)
        with pytest.raises(ValueError, match="^unknown expert 'e9'$"):
            expert_pair(small_corpus, ("e1", "e9"))
        split = parse_annotations(f"{HEADER}\nt1,e1,sand,1,0.5\nt2,e2,sand,1,0.5\n")
        with pytest.raises(ValueError, match="^experts 'e1' and 'e2' annotate different tiles$"):
            expert_pair(split)
        three = parse_annotations(self.INTERLEAVED)
        with pytest.raises(ValueError, match="^corpus has 3 experts; pass the two to compare$"):
            expert_pair(three)
        for experts in ((), ("e1",), ("e1", "e2", "e3")):
            with pytest.raises(ValueError, match="compares exactly two experts"):
                expert_pair(three, experts)

    def test_one_expert_named_twice_is_refused(self, small_corpus):
        with pytest.raises(ValueError, match="^an expert pair compares two different "
                                             "experts, got 'e1' twice$"):
            expert_pair(small_corpus, ("e1", "e1"))


def _expert_pair_by_keys(corpus, experts=None, weights=DEFAULT_WEIGHTS):
    """The per-key loop `expert_pair` once was, kept as its reference."""
    if experts is None:
        experts = corpus.experts
        if len(experts) != 2:
            raise ValueError(f"corpus has {len(experts)} experts; pass the two to compare")
    experts = tuple(experts)
    if len(experts) != 2:
        raise ValueError(f"an expert pair compares exactly two experts, got {len(experts)}")
    if experts[0] == experts[1]:
        raise ValueError(
            f"an expert pair compares two different experts, got {experts[0]!r} twice"
        )
    frame = corpus.frame
    if frame.model is not Model.SHAFER:
        raise ValueError(
            f"corpus statistics need an exclusive frame, got the {frame.model.value} model"
        )
    keys = corpus.keys
    order: dict[str, int] = {}
    for tile, expert in keys:
        if expert in experts:
            order.setdefault(tile, len(order))
    owned = [[owner for owner, key in enumerate(keys) if key[1] == expert]
             for expert in experts]
    for expert, owners in zip(experts, owned):
        if not owners:
            raise ValueError(f"unknown expert {expert!r}")
    if any(len(owners) != len(order) for owners in owned):
        raise ValueError(f"experts {experts[0]!r} and {experts[1]!r} annotate different tiles")
    scale = np.array([0.0] + [weights.weight(level) for level in (1, 2, 3)])
    share = corpus.proportion * scale[corpus.level]

    def masses(owners):
        row_of = np.full(len(keys), -1, dtype=np.intp)
        row_of[owners] = [order[keys[owner][0]] for owner in owners]
        rows = row_of[corpus.owner]
        mine = rows >= 0
        out = np.zeros((len(order), frame.n_classes))
        np.add.at(out, (rows[mine], corpus.class_index[mine]), share[mine])
        return out

    a, b = (masses(owners) for owners in owned)
    return tuple(order), a, b


def _shuffled_corpus_text(seed, tiles, experts, keep):
    """Rows for each (tile, expert) key kept with probability `keep`, one to
    three entries each, all rows shuffled, so keys return and a tile's first
    key may belong to any expert."""
    rng = np.random.default_rng(seed)
    labels = sediment_frame().labels
    lines = []
    for t in range(tiles):
        for e in range(experts):
            if rng.random() >= keep:
                continue
            parts = rng.integers(1, 4)
            for p in np.floor(rng.dirichlet(np.ones(parts + 1))[:parts] * 1e4) / 1e4:
                lines.append(f"t{t},e{e + 1},{labels[rng.integers(len(labels))]},"
                             f"{rng.integers(1, 4)},{p:.4f}")
    rng.shuffle(lines)
    return "\n".join([HEADER, *lines]) + "\n"


def _pair_outcome(make):
    try:
        tiles, a, b = make()
    except ValueError as exc:
        return str(exc)
    return tiles, np.asarray(a).tobytes(), np.asarray(b).tobytes()


class TestExpertPairMatchesTheKeyLoop:
    """`expert_pair` gives the per-key loop's tiles and array bytes, or its message."""

    @pytest.mark.parametrize("experts", [
        None, ("e1", "e2"), ("e2", "e1"), ("e1", "e3"), ("e3", "e2"), ("e1", "e9"),
        ("e9", "e1"), ("e2", "e2"), ("e1", "e2", "e3"),
    ], ids=lambda experts: "-".join(experts) if experts else "default")
    @pytest.mark.parametrize("seed, n_experts, keep", [
        (1, 2, 1.0), (2, 3, 1.0), (3, 3, 1.0), (4, 2, 0.9), (5, 3, 0.95), (6, 3, 0.5),
    ])
    def test_seeded_corpora(self, seed, n_experts, keep, experts):
        corpus = parse_annotations(_shuffled_corpus_text(seed, 40, n_experts, keep))

        def vectorized():
            pair = expert_pair(corpus, experts)
            return pair.tiles, pair.a, pair.b

        assert _pair_outcome(vectorized) == _pair_outcome(
            lambda: _expert_pair_by_keys(corpus, experts))

    def test_the_seeded_corpora_reorder_rows_and_split_tile_sets(self):
        full = parse_annotations(_shuffled_corpus_text(2, 40, 3, 1.0))
        tiles, _, _ = _expert_pair_by_keys(full, ("e1", "e2"))
        assert list(tiles) != sorted(tiles, key=full.tiles.index)
        sparse = parse_annotations(_shuffled_corpus_text(4, 40, 2, 0.9))
        with pytest.raises(ValueError, match="annotate different tiles"):
            _expert_pair_by_keys(sparse)


class TestConflictMatrix:
    def test_hand_computed_entries(self, small_corpus):
        matrix = conflict_matrix(expert_pair(small_corpus, ("e1", "e2")))
        labels = matrix.labels
        sand, silt = labels.index("sand"), labels.index("silt")
        # only tile t1 disagrees: (2/3) * (2/3), averaged over two tiles
        expected = (2.0 / 3.0) ** 2 / 2 * 1e4
        assert matrix.values[sand][silt] == pytest.approx(expected)
        flat = [v for row in matrix.values for v in row]
        assert sum(1 for v in flat if v > 0) == 1
        assert matrix.tile_count == 2

    def test_total_matches_the_fusion_route(self, small_corpus):
        matrix = conflict_matrix(expert_pair(small_corpus, ("e1", "e2")))
        conflicts = []
        for tile in small_corpus.tiles:
            pair = [
                tile_mass(small_corpus.annotation(tile, "e1")),
                tile_mass(small_corpus.annotation(tile, "e2")),
            ]
            conflicts.append(combine_conjunctive(pair).conflict)
        assert matrix.total == pytest.approx(sum(conflicts) / len(conflicts))

    def test_max_entry(self, small_corpus):
        matrix = conflict_matrix(expert_pair(small_corpus, ("e1", "e2")))
        label_i, label_j, value = matrix.max_entry
        assert (label_i, label_j) == ("sand", "silt")
        assert value == pytest.approx((2.0 / 3.0) ** 2 / 2 * 1e4)

    def test_swapping_experts_transposes(self, small_corpus):
        forward = conflict_matrix(expert_pair(small_corpus, ("e1", "e2")))
        backward = conflict_matrix(expert_pair(small_corpus, ("e2", "e1")))
        n = len(forward.labels)
        for i in range(n):
            for j in range(n):
                assert forward.values[i][j] == pytest.approx(backward.values[j][i])

    def test_csv_round_trip(self, small_corpus):
        matrix = conflict_matrix(expert_pair(small_corpus, ("e1", "e2")))
        rows = list(csv.reader(io.StringIO(matrix.to_csv_text())))
        assert rows[0] == ["class", *matrix.labels]
        for row, values in zip(rows[1:], matrix.values):
            assert tuple(float(v) for v in row[1:]) == values

    def test_unknown_expert(self, small_corpus):
        with pytest.raises(ValueError, match="unknown expert 'e9'"):
            conflict_matrix(expert_pair(small_corpus, ("e1", "e9")))

    def test_mismatched_tile_sets(self):
        text = f"{HEADER}\nt1,e1,sand,1,0.5\nt2,e2,sand,1,0.5\n"
        with pytest.raises(ValueError, match="different tiles"):
            conflict_matrix(expert_pair(parse_annotations(text), ("e1", "e2")))

    def test_custom_weights_scale_the_masses(self, small_corpus):
        flat = CertaintyWeights(1.0, 1.0, 1.0)
        matrix = conflict_matrix(expert_pair(small_corpus, ("e1", "e2"), flat))
        sand = matrix.labels.index("sand")
        silt = matrix.labels.index("silt")
        assert matrix.values[sand][silt] == pytest.approx(1.0 / 2 * 1e4)


INSTABILITY = """tile_id,expert_id,class,certainty_level,proportion
t1,e1,A,3,0.5
t1,e1,B,3,0.3333333333333333
t1,e2,A,2,0.5
t1,e2,B,1,0.5
"""


class TestDecisionDifference:
    def test_single_class_annotations_never_flip(self, small_corpus):
        diff = decision_difference(expert_pair(small_corpus))
        assert diff.tiles == 2
        assert diff.differing == 0
        assert diff.rate == 0.0

    def test_known_flipping_tile(self):
        corpus = parse_annotations(INSTABILITY, frame=make_frame(("A", "B")))
        weights = CertaintyWeights(1.0, 0.86, 0.6)
        for rule_b in ("pcr5", "pcr6"):
            diff = decision_difference(expert_pair(corpus, weights=weights), rule_b=rule_b)
            assert diff.tiles == 1
            assert diff.differing == 1
            assert diff.rate == 1.0

    def test_json_payload(self, small_corpus):
        payload = json.loads(decision_difference(expert_pair(small_corpus)).to_json())
        assert payload == {
            "rule_a": "conjunctive",
            "rule_b": "pcr6",
            "tiles": 2,
            "differing": 0,
            "rate": 0.0,
        }

    def test_requires_an_expert_pair(self):
        three = (
            f"{HEADER}\nt1,e1,sand,1,0.5\nt1,e2,sand,1,0.5\nt1,e3,sand,1,0.5\n"
        )
        corpus = parse_annotations(three)
        with pytest.raises(ValueError, match="pass the two"):
            decision_difference(expert_pair(corpus))
        diff = decision_difference(expert_pair(corpus, ("e1", "e3")))
        assert diff.tiles == 1

    def test_unknown_expert_in_pair(self, small_corpus):
        with pytest.raises(ValueError, match="unknown expert"):
            decision_difference(expert_pair(small_corpus, ("e1", "nobody")))


class TestDemoCorpus:
    def test_generation_is_deterministic(self):
        assert generate_demo_corpus(50, 3) == generate_demo_corpus(50, 3)
        assert generate_demo_corpus(50, 3) != generate_demo_corpus(50, 4)

    def test_shipped_file_matches_the_generator(self, repo_root):
        shipped = (repo_root / "data" / "demo_corpus.csv").read_text(encoding="utf-8")
        assert shipped == generate_demo_corpus(DEMO_TILES, DEMO_SEED)

    def test_shipped_shape(self, repo_root):
        corpus = load_annotations(str(repo_root / "data" / "demo_corpus.csv"))
        assert len(corpus.tiles) == DEMO_TILES
        assert corpus.experts == DEMO_EXPERTS
        assert len(corpus.keys) == 2 * DEMO_TILES
        assert expert_pair(corpus).tiles == corpus.tiles

    def test_single_class_tiles_agree_under_both_rules(self):
        corpus = parse_annotations(generate_demo_corpus(300, DEMO_SEED))
        assert decision_difference(expert_pair(corpus)).differing == 0


def _object_route(corpus, experts, weights=DEFAULT_WEIGHTS, rules=("conjunctive", "pcr6")):
    """Conflict matrix and flip count of the per-tile reference path.

    Each tile's masses come from `tile_mass`, are combined with `combine`
    under both rules and decided with `decide`.
    """
    frame = corpus.frame
    atoms = frame.atoms()
    tiles = [tile for tile, expert in corpus.keys if expert == experts[0]]
    totals = np.zeros((frame.n_classes, frame.n_classes))
    differing = 0
    for tile in tiles:
        pair = [tile_mass(corpus.annotation(tile, e), weights, frame) for e in experts]
        outer = np.outer(*([m.value(atom) for atom in atoms] for m in pair))
        np.fill_diagonal(outer, 0.0)
        totals += outer
        picks = [decide(combine(pair, rule), "pignistic", atoms).chosen for rule in rules]
        differing += picks[0].mask != picks[1].mask
    return totals * 1e4 / len(tiles), differing


def _assert_matches_object_route(corpus, experts, weights=DEFAULT_WEIGHTS,
                                 rules=("conjunctive", "pcr6")):
    expected_matrix, expected_differing = _object_route(corpus, experts, weights, rules)
    matrix = conflict_matrix(expert_pair(corpus, experts, weights))
    np.testing.assert_allclose(matrix.values, expected_matrix, rtol=1e-12, atol=0.0)
    diff = decision_difference(expert_pair(corpus, experts, weights), *rules)
    assert diff.differing == expected_differing
    return diff


def _uniform_corpus_text(seed, tiles, labels, entries):
    """Two experts; each annotation splits a uniform-law row over `entries`
    parts, floored to 4 decimals, each part on a random label and level."""
    rng = np.random.default_rng(seed)
    e = rng.standard_exponential((2 * tiles, entries + 1))
    parts = np.floor(e[:, :entries] / e.sum(axis=1, keepdims=True) * 1e4) / 1e4
    lines = [HEADER]
    for row in range(2 * tiles):
        tile, expert = f"t{row // 2:04d}", f"e{row % 2 + 1}"
        for p in parts[row]:
            label = labels[rng.integers(len(labels))]
            lines.append(f"{tile},{expert},{label},{rng.integers(1, 4)},{p:.4f}")
    return "\n".join(lines) + "\n"


class TestArraysMatchTheObjectRoute:
    """The array kernels against tile_mass → combine → decide, tile by tile."""

    def test_demo_corpus(self, repo_root):
        corpus = load_annotations(str(repo_root / "data" / "demo_corpus.csv"))
        diff = _assert_matches_object_route(corpus, DEMO_EXPERTS)
        assert diff.differing == 0

    def test_dense_corpus(self):
        labels = sediment_frame().labels
        corpus = parse_annotations(_uniform_corpus_text(1, 600, labels, len(labels)))
        for rules in (("conjunctive", "pcr6"), ("pcr5", "conjunctive")):
            diff = _assert_matches_object_route(corpus, ("e1", "e2"), rules=rules)
            assert diff.differing > 0

    def test_a_class_at_two_certainty_levels(self):
        # five parts over three labels: every annotation repeats a class
        corpus = parse_annotations(_uniform_corpus_text(2, 400, ("rock", "sand", "silt"), 5))
        repeated = {
            (a.tile_id, a.expert_id)
            for a in corpus.annotations
            if len({e.label for e in a.entries}) < len(a.entries)
        }
        assert len(repeated) == len(corpus.annotations)
        levels = {tuple(sorted({e.level for e in a.entries if e.label == "sand"}))
                  for a in corpus.annotations}
        assert any(len(found) > 1 for found in levels)
        for weights in (DEFAULT_WEIGHTS, CertaintyWeights(1.0, 0.86, 0.6)):
            _assert_matches_object_route(corpus, ("e1", "e2"), weights)

    def test_mirrored_halves_tie_to_the_lowest_class(self):
        text = f"{HEADER}\nt1,e1,A,1,0.5\nt1,e1,B,1,0.5\nt1,e2,B,2,0.5\nt1,e2,A,2,0.5\n"
        corpus = parse_annotations(text, frame=make_frame(("A", "B", "C")))
        diff = _assert_matches_object_route(corpus, ("e1", "e2"))
        assert diff.differing == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5000),
                st.integers(0, 5000),
                st.sampled_from((1, 2, 3)),
                st.sampled_from((1, 2, 3)),
                st.sampled_from((0, 0, 1, -1, 3)),
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from((DEFAULT_WEIGHTS, CertaintyWeights(1.0, 1.0, 1.0),
                         CertaintyWeights(1.0, 0.86, 0.6))),
    )
    def test_exact_and_near_ties(self, tiles, weights):
        # the second expert mirrors the first, exactly or a few 1e-4 off
        lines = [HEADER]
        for t, (x, y, level_x, level_y, nudge) in enumerate(tiles):
            y_mirror = min(max(y + nudge, 0), 5000)
            lines += [
                f"t{t},e1,A,{level_x},{x / 1e4:.4f}",
                f"t{t},e1,B,{level_y},{y / 1e4:.4f}",
                f"t{t},e2,A,{level_y},{y_mirror / 1e4:.4f}",
                f"t{t},e2,B,{level_x},{x / 1e4:.4f}",
            ]
        corpus = parse_annotations("\n".join(lines) + "\n", frame=make_frame(("A", "B", "C")))
        for rules in (("conjunctive", "pcr6"), ("pcr5", "conjunctive")):
            _assert_matches_object_route(corpus, ("e1", "e2"), weights, rules)

    def test_swapping_experts_transposes_exactly_in_any_file_order(self):
        # the second expert's rows come in reverse tile order
        text = _uniform_corpus_text(3, 60, sediment_frame().labels, 7)
        header, *rows = text.splitlines()
        first = [r for r in rows if ",e1," in r]
        second = [r for r in rows if ",e2," in r]
        corpus = parse_annotations("\n".join([header, *first, *reversed(second)]) + "\n")
        _assert_matches_object_route(corpus, ("e1", "e2"))
        forward = conflict_matrix(expert_pair(corpus, ("e1", "e2")))
        backward = conflict_matrix(expert_pair(corpus, ("e2", "e1")))
        assert forward.values == tuple(zip(*backward.values))


class TestArrayRouteRejections:
    def test_unknown_rule(self, small_corpus):
        with pytest.raises(ValueError, match="unknown rule 'votes'; expected one of"):
            decision_difference(expert_pair(small_corpus), rule_b="votes")
        with pytest.raises(ValueError, match="unknown rule 'Conjunctive'"):
            decision_difference(expert_pair(small_corpus), rule_a="Conjunctive")

    def test_free_frame_is_refused(self):
        frame = make_frame(("A", "B"), Model.FREE)
        corpus = parse_annotations(f"{HEADER}\nt1,e1,A,1,0.5\nt1,e2,B,1,0.5\n", frame=frame)
        with pytest.raises(ValueError, match="exclusive frame, got the free model"):
            conflict_matrix(expert_pair(corpus, ("e1", "e2")))
        with pytest.raises(ValueError, match="exclusive frame, got the free model"):
            decision_difference(expert_pair(corpus))

    def test_unknown_label_in_a_built_corpus(self):
        # a corpus holds class indices, refused outside the frame on construction
        lava = TileAnnotation("t1", "e1", (("lava", 1, 0.5),))
        with pytest.raises(ValueError, match="^unknown class label 'lava'$"):
            tile_mass(lava)

    def test_total_conflict_has_no_decision(self):
        corpus = parse_annotations(f"{HEADER}\nt1,e1,A,1,1.0\nt1,e2,B,1,1.0\n",
                                   frame=make_frame(("A", "B")))
        flat = CertaintyWeights(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="total conflict"):
            _object_route(corpus, ("e1", "e2"), flat)
        with pytest.raises(ValueError, match="total conflict"):
            decision_difference(expert_pair(corpus, weights=flat))


@st.composite
def _small_columns(draw):
    """Distinct keys and a few entry rows (owner, class, level, proportion),
    each field now and then outside what a TileAnnotation accepts."""
    keys = draw(st.lists(st.tuples(st.sampled_from(("t1", "t2")), st.sampled_from(("e1", "e2"))),
                         min_size=1, max_size=3, unique=True))
    rows = draw(st.lists(st.tuples(
        st.integers(0, len(keys) - 1),
        st.integers(0, 7),
        st.integers(1, 4),
        st.floats(0.0, 1.0) | st.sampled_from((0.5, 0.5000000005, 0.7, 1.25, float("nan"))),
    ), max_size=5))
    return tuple(keys), rows


class TestDirectConstruction:
    KEYS = (("t1", "e1"), ("t1", "e2"))

    def _columns(self, **changes):
        columns = {
            "owner": np.array([0, 1]),
            "class_index": np.array([0, 0]),
            "level": np.array([1, 1]),
            "proportion": np.array([0.5, 0.5]),
        }
        columns.update(changes)
        return columns

    def test_an_owner_outside_the_keys(self):
        # the columns once accepted, which then failed with a bare IndexError
        with pytest.raises(ValueError, match="^owner must index the 2 keys, got 5$"):
            Corpus.from_keys(sediment_frame(), self.KEYS, np.array([0, 5]), np.array([0, 0]),
                             np.array([1, 1]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="^owner must index the 2 keys, got -1$"):
            Corpus.from_keys(sediment_frame(), self.KEYS, **self._columns(owner=np.array([-1, 1])))

    @pytest.mark.parametrize("field, values, message", [
        ("class_index", [0, 7], "class_index must index the 7 classes, got 7"),
        ("class_index", [-1, 0], "class_index must index the 7 classes, got -1"),
        ("level", [0, 1], "level must be 1, 2 or 3, got 0"),
        ("level", [1, 4], "level must be 1, 2 or 3, got 4"),
        ("proportion", [0.5, 1.5], "proportion must lie in [0, 1], got 1.5"),
        ("proportion", [-0.25, 0.5], "proportion must lie in [0, 1], got -0.25"),
        ("proportion", [0.5, float("nan")], "proportion must lie in [0, 1], got nan"),
        ("proportion", [float("inf"), 0.5], "proportion must lie in [0, 1], got inf"),
        ("owner", [0.0, 1.0], "owner must be a one-dimensional integer array, "
                              "got float64 with shape (2,)"),
        ("proportion", [[0.5, 0.5]], "proportion must be a one-dimensional numeric array, "
                                     "got float64 with shape (1, 2)"),
    ])
    def test_refusals_name_the_field(self, field, values, message):
        columns = self._columns(**{field: np.array(values)})
        with pytest.raises(ValueError) as refused:
            Corpus.from_keys(sediment_frame(), self.KEYS, **columns)
        assert str(refused.value) == message

    def test_a_repeated_key(self):
        # once accepted: annotation() kept the second
        with pytest.raises(ValueError) as refused:
            Corpus.from_keys(sediment_frame(), (("t1", "e1"), ("t1", "e1"), ("t1", "e2")),
                             np.array([0, 1, 2]), np.array([2, 3, 3]), np.array([1, 1, 1]),
                             np.array([0.5, 0.9, 0.5]))
        assert str(refused.value) == "keys must be distinct, got ('t1', 'e1') twice"

    @pytest.mark.parametrize("keys, bad", [
        ((("t1", "e1", "x"), ("t1",)), ("t1", "e1", "x")),
        ((("t1", "e1"), ("t1", 3)), ("t1", 3)),
        ((("t1", "e1"), "t2"), "t2"),
        ((["t1", "e1"], ("t1", "e2")), ["t1", "e1"]),
    ])
    def test_a_key_that_is_not_two_strings(self, keys, bad):
        # the first two keys were once accepted as they stand, the list key
        # as the tuple ("t1", "e1")
        with pytest.raises(ValueError) as refused:
            Corpus.from_keys(sediment_frame(), keys, **self._columns())
        assert str(refused.value) == (
            f"keys must be (tile, expert) pairs of two strings, got {bad!r}"
        )

    @pytest.mark.parametrize("key", [("", "e2"), ("t1", "")])
    def test_an_empty_id(self, key):
        with pytest.raises(ValueError) as refused:
            Corpus.from_keys(sediment_frame(), (("t1", "e1"), key), **self._columns())
        assert str(refused.value) == (
            f"keys must not hold an empty tile or expert id, got {key!r}"
        )

    # t1 by e1, t1 by e2, t2 by e1; one entry each
    CODES = {
        "tiles": ("t1", "t2"),
        "experts": ("e1", "e2"),
        "key_tile": np.array([0, 0, 1]),
        "key_expert": np.array([0, 1, 0]),
        "owner": np.array([0, 1, 2]),
        "class_index": np.array([0, 0, 0]),
        "level": np.array([1, 1, 1]),
        "proportion": np.array([0.5, 0.5, 0.5]),
    }

    def test_codes_give_the_keys(self):
        corpus = Corpus(sediment_frame(), **self.CODES)
        assert corpus.keys == (("t1", "e1"), ("t1", "e2"), ("t2", "e1"))
        built = Corpus.from_keys(sediment_frame(), corpus.keys, corpus.owner,
                                 corpus.class_index, corpus.level, corpus.proportion)
        assert _columns(built) == _columns(corpus)

    @pytest.mark.parametrize("changes, message", [
        pytest.param({"key_tile": np.array([0, 0, 2])},
                     "key_tile must index the 2 tiles, got 2", id="tile-code-outside"),
        pytest.param({"key_expert": np.array([0, -1, 0])},
                     "key_expert must index the 2 experts, got -1", id="expert-code-outside"),
        pytest.param({"key_tile": np.array([0, 0, 1, 0]), "key_expert": np.array([0, 1, 0, 1])},
                     "keys must be distinct, got ('t1', 'e2') twice", id="repeated-pair"),
        pytest.param({"key_tile": np.array([1, 1, 0])},
                     "key_tile must number the tiles in order of first appearance, got 1 before 0",
                     id="tiles-out-of-order"),
        pytest.param({"key_tile": np.array([0, 1, 2]), "tiles": ("t1", "t2", "t3"),
                      "key_expert": np.array([0, 2, 1]), "experts": ("e1", "e2", "e3")},
                     "key_expert must number the experts in order of first appearance, "
                     "got 2 before 1", id="experts-out-of-order"),
        pytest.param({"tiles": ("t1", "t2", "t3")}, "tiles holds 't3', which no key uses",
                     id="unused-tile"),
        pytest.param({"experts": ("e1", "e2", "e3")}, "experts holds 'e3', which no key uses",
                     id="unused-expert"),
        pytest.param({"tiles": ("t1", "")}, "tiles must hold non-empty strings, got ''",
                     id="empty-name"),
        pytest.param({"experts": ("e1", 2)}, "experts must hold non-empty strings, got 2",
                     id="name-not-a-str"),
        pytest.param({"experts": ("e1", "e1")}, "experts must be distinct, got 'e1' twice",
                     id="repeated-name"),
        pytest.param({"tiles": "t1"}, "tiles must be a sequence of ids, got the str 't1'",
                     id="names-in-a-str"),
        pytest.param({"key_tile": np.array([0.0, 0.0, 1.0])},
                     "key_tile must be a one-dimensional integer array, got float64 with shape (3,)",
                     id="float-codes"),
        pytest.param({"key_expert": np.array([0, 1])},
                     "key columns differ in length: key_tile 3, key_expert 2", id="key-lengths"),
        pytest.param({"owner": np.array([0, 1, 3])}, "owner must index the 3 keys, got 3",
                     id="owner-outside"),
    ])
    def test_code_refusals_name_the_field(self, changes, message):
        with pytest.raises(ValueError) as refused:
            Corpus(sediment_frame(), **{**self.CODES, **changes})
        assert str(refused.value) == message

    def test_columns_of_different_lengths(self):
        with pytest.raises(ValueError) as refused:
            Corpus.from_keys(sediment_frame(), self.KEYS, **self._columns(level=np.array([1, 1, 1])))
        assert str(refused.value) == (
            "columns differ in length: owner 2, class_index 2, level 3, proportion 2"
        )

    def test_a_group_past_one_is_refused(self):
        # once accepted: the weighted row (0.933) passed expert_pair, and only
        # ==, annotations and annotation() then raised
        columns = self._columns(owner=np.array([0, 0, 1]), class_index=np.array([0, 1, 2]),
                                level=np.array([1, 1, 1]), proportion=np.array([0.7, 0.7, 0.5]))
        with pytest.raises(ValueError) as refused:
            Corpus.from_keys(sediment_frame(), self.KEYS, **columns)
        assert str(refused.value) == "proportions for tile 't1' by expert 'e1' sum to 1.4 > 1"

    def test_group_sum_on_the_tolerance_edge(self):
        # 1 + 0.5e-9 lies inside SUM_TOLERANCE (1e-9), 1 + 2e-9 outside it
        def corpus(second):
            return Corpus.from_keys(sediment_frame(), self.KEYS, np.array([1, 0, 0]),
                                    np.array([0, 0, 1]), np.array([1, 1, 1]),
                                    np.array([0.5, 0.5, second]))

        assert corpus(0.5000000005).annotation("t1", "e1").entries == (
            ("rock", 1, 0.5), ("cobble", 1, 0.5000000005)
        )
        with pytest.raises(ValueError) as refused:
            corpus(0.500000002)
        assert str(refused.value) == (
            "proportions for tile 't1' by expert 'e1' sum to 1.0000000020000002 > 1"
        )

    @given(_small_columns())
    def test_a_corpus_refuses_what_its_annotations_would(self, columns):
        keys, rows = columns
        owner, class_index, level = (np.array([row[i] for row in rows], dtype=np.intp)
                                     for i in range(3))
        proportion = np.array([row[3] for row in rows], dtype=np.float64)
        try:
            corpus = Corpus.from_keys(sediment_frame(), keys, owner, class_index, level, proportion)
        except ValueError:
            return
        assert len(corpus.annotations) == len(keys)
        assert corpus == corpus

    def test_writable_arrays_are_copied_read_only(self):
        columns = self._columns(level=np.array([1, 3], dtype=np.int8))
        corpus = Corpus.from_keys(sediment_frame(), self.KEYS, **columns)
        for name, array in columns.items():
            array[0] = 0
            held = getattr(corpus, name)
            assert held is not array
            assert not held.flags.writeable
        assert corpus.owner.dtype == corpus.level.dtype == np.intp
        assert corpus.level.tolist() == [1, 3]
        assert corpus.proportion.tolist() == [0.5, 0.5]
        assert corpus.annotation("t1", "e2").entries == (("rock", 3, 0.5),)

    def test_read_only_arrays_are_kept(self, small_corpus):
        rebuilt = Corpus(*(getattr(small_corpus, field.name)
                           for field in dataclasses.fields(Corpus)))
        for name in ("key_tile", "key_expert", "owner", "class_index", "level", "proportion"):
            assert getattr(rebuilt, name) is getattr(small_corpus, name)
        assert rebuilt == small_corpus


class TestBuiltAndParsedCorpora:
    def test_a_built_corpus_gives_the_parsed_statistics(self):
        text = _uniform_corpus_text(4, 200, ("rock", "sand", "silt"), 5)
        parsed = parse_annotations(text)
        built = Corpus.from_keys(parsed.frame, list(parsed.keys), parsed.owner.copy(),
                                 parsed.class_index.copy(), parsed.level.copy(),
                                 parsed.proportion.copy())
        assert built == parsed
        assert built.tiles == parsed.tiles
        assert built.experts == parsed.experts
        assert (conflict_matrix(expert_pair(built, ("e1", "e2")))
                == conflict_matrix(expert_pair(parsed, ("e1", "e2"))))
        assert decision_difference(expert_pair(built)) == decision_difference(expert_pair(parsed))

    def test_a_built_corpus_holds_the_parsed_columns(self):
        text = _uniform_corpus_text(3, 120, ("rock", "sand", "silt"), 9)
        parsed = parse_annotations(text)
        built = Corpus.from_keys(parsed.frame, parsed.keys, parsed.owner.astype(np.int32),
                                 parsed.class_index.astype(np.uint8),
                                 parsed.level.astype(np.int8), parsed.proportion.copy())
        assert built.keys == parsed.keys
        for field in ("owner", "class_index", "level", "proportion"):
            assert np.array_equal(getattr(built, field), getattr(parsed, field))
            assert getattr(built, field).dtype == getattr(parsed, field).dtype
        for experts in (("e1", "e2"), ("e2", "e1")):
            built_pair, parsed_pair = expert_pair(built, experts), expert_pair(parsed, experts)
            assert built_pair.tiles == parsed_pair.tiles
            assert np.array_equal(built_pair.a, parsed_pair.a)
            assert np.array_equal(built_pair.b, parsed_pair.b)

    def test_parsing_and_statistics_build_no_annotation_objects(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"built {self!r}")

        monkeypatch.setattr(TileAnnotation, "__post_init__", refuse)
        corpus = parse_annotations(_uniform_corpus_text(2, 50, ("rock", "sand"), 3))
        assert corpus.experts == ("e1", "e2")
        assert len(corpus.tiles) == len(expert_pair(corpus).tiles) == 50
        conflict_matrix(expert_pair(corpus, ("e1", "e2")))
        decision_difference(expert_pair(corpus))
        repr(corpus)
        assert "keys" not in vars(corpus)
        with pytest.raises(AssertionError, match="built TileAnnotation"):
            corpus.annotations

    def test_repr_names_the_frame_and_the_annotation_count(self, small_corpus):
        assert repr(small_corpus) == (
            f"Corpus(frame={small_corpus.frame!r}, annotations=<4 annotations>)"
        )

    def test_corpus_is_immutable(self, small_corpus):
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_corpus.frame = sediment_frame()
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_corpus.annotations = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            del small_corpus.frame
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_corpus.keys = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_corpus.proportion = small_corpus.proportion.copy()
        for array in (small_corpus.owner, small_corpus.class_index, small_corpus.level,
                      small_corpus.proportion):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
