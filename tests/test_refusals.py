"""Every entry point against every kind of bad number, one row each.

A row names an entry point, an input kind and the value passed, then
either the exact message of the refusal or, as `Accepted`, why the value
is fine there.  The kinds are NaN, ±inf, a negative value, a value above
1 (and, for a count with a cap, one above the cap), a bool, a float where
an integer is meant (or an int where a real is meant), a str and None,
plus a complex number where a real is meant.
The real, integer and [0, 1] rules each live in one helper, so the same
kind reads the same at every site that applies the same rule.  The rows
for ids, labels, mass JSON keys, expert lists and file bytes are not
numbers; each of them lists its own kinds, and so does annotation text,
whose rows name each fault of `parse_annotations` by its line.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest

from expertfuse.cli import _load_mass
from expertfuse.corpus import Corpus, expert_pair, load_annotations, parse_annotations
from expertfuse.expert_models import (
    DEFAULT_WEIGHTS,
    CertaintyWeights,
    DeclarationKind,
    ExpertDeclaration,
    TileAnnotation,
    sediment_frame,
)
from expertfuse.lattice import make_frame
from expertfuse.mass import MassFunction, mass_from_entries
from expertfuse.stability import (
    StabilityResult,
    check_class_counts,
    conflict_density,
    decision_change_rate,
    invariance_check,
)


class Accepted(NamedTuple):
    reason: str


FRAME = make_frame(("A", "B"))
SAYS_A, SAYS_B = DeclarationKind.SAYS_A, DeclarationKind.SAYS_B
NAN, INF = math.nan, math.inf


def _from_json(value: object) -> MassFunction:
    return MassFunction.from_json(json.dumps(
        {"frame": ["A", "B"], "model": "shafer", "masses": {"A": value, "Θ": 0.0}}))


def _corpus(proportion: object = 0.5, level: object = 1, key: object = ("t1", "e1")) -> Corpus:
    return Corpus(sediment_frame(), (key,), [0], [0], [level], [proportion])


def _load(data: bytes) -> Corpus:
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "annotations.csv"
        path.write_bytes(data)
        return load_annotations(str(path))


def _load_mass_file(data: bytes) -> MassFunction:
    """`data` read as the mass file of a command; the message names the file mass.json."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "mass.json"
        path.write_bytes(data)
        try:
            return _load_mass(str(path))
        except ValueError as exc:
            raise ValueError(str(exc).replace(str(path), "mass.json")) from None


_HEADER = b"tile_id,expert_id,class,certainty_level,proportion"
_TEXT_HEADER = _HEADER.decode("ascii")
_TWO_EXPERTS = Corpus(sediment_frame(), (("t1", "A"), ("t1", "B")),
                      [0, 1], [0, 0], [1, 1], [0.5, 0.5])


ENTRY_POINTS = {
    "ExpertDeclaration.p_a": lambda v: ExpertDeclaration(SAYS_A, v, 0.0, 0.5, 0.0),
    "ExpertDeclaration.p_b": lambda v: ExpertDeclaration(SAYS_B, 0.0, v, 0.0, 0.5),
    "ExpertDeclaration.c_a": lambda v: ExpertDeclaration(SAYS_A, 1.0, 0.0, v, 0.0),
    "ExpertDeclaration.c_b": lambda v: ExpertDeclaration(SAYS_A, 1.0, 0.0, 0.5, v),
    "TileAnnotation.proportion": lambda v: TileAnnotation("t1", "e1", [("sand", 1, v)]),
    "StabilityResult.change_rate": lambda v: StabilityResult(2, 10, 20, v, 0.0, 0.1, 0.2),
    "CertaintyWeights.c1": lambda v: CertaintyWeights(v, 0.5, 0.3),
    "CertaintyWeights.c2": lambda v: CertaintyWeights(1.0, v, 0.3),
    "CertaintyWeights.c3": lambda v: CertaintyWeights(1.0, 0.5, v),
    "mass_from_entries": lambda v: mass_from_entries(FRAME, [("A", 0.0), ("B", v)]),
    "MassFunction.from_json": _from_json,
    "CertaintyWeights.weight": DEFAULT_WEIGHTS.weight,
    "TileAnnotation.level": lambda v: TileAnnotation("t1", "e1", [("sand", v, 0.5)]),
    "check_class_counts": lambda v: check_class_counts([v]),
    "decision_change_rate.seed": lambda v: decision_change_rate(2, 10, v),
    "invariance_check.seed": lambda v: invariance_check(10, v),
    "decision_change_rate.n_samples": lambda v: decision_change_rate(2, v, 0),
    "invariance_check.n_samples": lambda v: invariance_check(v, 0),
    "conflict_density.bins": lambda v: conflict_density(2, 10, v),
    "make_frame": lambda v: make_frame(("A", v)),
    "Corpus.proportion": lambda v: _corpus(proportion=v),
    "Corpus.level": lambda v: _corpus(level=v),
    "Corpus.key": lambda v: _corpus(key=v),
    "TileAnnotation.key": lambda v: TileAnnotation(*v, [("sand", 1, 0.5)]),
    "TileAnnotation.label": lambda v: TileAnnotation("t1", "e1", [(v, 1, 0.5)]),
    "MassFunction.from_json.keys": MassFunction.from_json,
    "expert_pair.experts": lambda v: expert_pair(_TWO_EXPERTS, v),
    "load_annotations": _load,
    "parse_annotations": parse_annotations,
    "mass JSON file": _load_mass_file,
}

_LADDER = "certainty weights must satisfy 0 < c3 <= c2 <= c1 <= 1"
_NOT_A_LABEL = "class label must be a non-empty string, got "

# entry point -> input kind -> (value, exact message or Accepted)
TABLE = {
    "ExpertDeclaration.p_a": {
        "nan": (NAN, "p_a must lie in [0, 1], got nan"),
        "inf": (INF, "p_a must lie in [0, 1], got inf"),
        "-inf": (-INF, "p_a must lie in [0, 1], got -inf"),
        "negative": (-0.5, "p_a must lie in [0, 1], got -0.5"),
        "above-1": (1.5, "p_a must lie in [0, 1], got 1.5"),
        "bool": (True, "p_a must be a real number, got True"),
        "int": (1, Accepted("an int is a real number, and 1 is in [0, 1]")),
        "str": ("1", "p_a must be a real number, got '1'"),
        "none": (None, "p_a must be a real number, got None"),
        "complex": (1j, "p_a must be a real number, got 1j"),
    },
    "ExpertDeclaration.p_b": {
        "nan": (NAN, "p_b must lie in [0, 1], got nan"),
        "inf": (INF, "p_b must lie in [0, 1], got inf"),
        "-inf": (-INF, "p_b must lie in [0, 1], got -inf"),
        "negative": (-0.5, "p_b must lie in [0, 1], got -0.5"),
        "above-1": (1.5, "p_b must lie in [0, 1], got 1.5"),
        "bool": (False, "p_b must be a real number, got False"),
        "int": (1, Accepted("an int is a real number, and 1 is in [0, 1]")),
        "str": ("1", "p_b must be a real number, got '1'"),
        "none": (None, "p_b must be a real number, got None"),
        "complex": (1j, "p_b must be a real number, got 1j"),
    },
    "ExpertDeclaration.c_a": {
        "nan": (NAN, "c_a must lie in [0, 1], got nan"),
        "inf": (INF, "c_a must lie in [0, 1], got inf"),
        "-inf": (-INF, "c_a must lie in [0, 1], got -inf"),
        "negative": (-0.5, "c_a must lie in [0, 1], got -0.5"),
        "above-1": (1.5, "c_a must lie in [0, 1], got 1.5"),
        "bool": (True, "c_a must be a real number, got True"),
        "int": (0, Accepted("an int is a real number, and 0 is in [0, 1]")),
        "str": ("0.6", "c_a must be a real number, got '0.6'"),
        "none": (None, "c_a must be a real number, got None"),
        "complex": (0.6j, "c_a must be a real number, got 0.6j"),
    },
    "ExpertDeclaration.c_b": {
        "nan": (NAN, "c_b must lie in [0, 1], got nan"),
        "inf": (INF, "c_b must lie in [0, 1], got inf"),
        "-inf": (-INF, "c_b must lie in [0, 1], got -inf"),
        "negative": (-0.5, "c_b must lie in [0, 1], got -0.5"),
        "above-1": (1.5, "c_b must lie in [0, 1], got 1.5"),
        "bool": (True, "c_b must be a real number, got True"),
        "int": (1, Accepted("an int is a real number, and 1 is in [0, 1]")),
        "str": ("0.6", "c_b must be a real number, got '0.6'"),
        "none": (None, "c_b must be a real number, got None"),
        "complex": (0.6j, "c_b must be a real number, got 0.6j"),
    },
    "TileAnnotation.proportion": {
        "nan": (NAN, "proportion must lie in [0, 1], got nan"),
        "inf": (INF, "proportion must lie in [0, 1], got inf"),
        "-inf": (-INF, "proportion must lie in [0, 1], got -inf"),
        "negative": (-0.1, "proportion must lie in [0, 1], got -0.1"),
        "above-1": (1.5, "proportion must lie in [0, 1], got 1.5"),
        "bool": (True, "proportion must be a real number, got True"),
        "int": (1, Accepted("an int is a real number, and 1 is in [0, 1]")),
        "str": ("0.5", "proportion must be a real number, got '0.5'"),
        "none": (None, "proportion must be a real number, got None"),
        "complex": (0.5j, "proportion must be a real number, got 0.5j"),
    },
    "StabilityResult.change_rate": {
        "nan": (NAN, "change rate must lie in [0, 1], got nan"),
        "inf": (INF, "change rate must lie in [0, 1], got inf"),
        "-inf": (-INF, "change rate must lie in [0, 1], got -inf"),
        "negative": (-0.5, "change rate must lie in [0, 1], got -0.5"),
        "above-1": (1.5, "change rate must lie in [0, 1], got 1.5"),
        "bool": (True, "change rate must be a real number, got True"),
        "int": (1, Accepted("an int is a real number, and 1 is in [0, 1]")),
        "str": ("0.5", "change rate must be a real number, got '0.5'"),
        "none": (None, "change rate must be a real number, got None"),
        "complex": (0.5j, "change rate must be a real number, got 0.5j"),
    },
    # Each weight is a fraction; the ladder then orders them, naming all three.
    "CertaintyWeights.c1": {
        "nan": (NAN, "certainty weight c1 must lie in [0, 1], got nan"),
        "inf": (INF, "certainty weight c1 must lie in [0, 1], got inf"),
        "-inf": (-INF, "certainty weight c1 must lie in [0, 1], got -inf"),
        "negative": (-0.5, "certainty weight c1 must lie in [0, 1], got -0.5"),
        "above-1": (1.5, "certainty weight c1 must lie in [0, 1], got 1.5"),
        "bool": (True, "certainty weight c1 must be a real number, got True"),
        "int": (1, Accepted("an int is a real number, and 1 >= 0.5 >= 0.3")),
        "str": ("1", "certainty weight c1 must be a real number, got '1'"),
        "none": (None, "certainty weight c1 must be a real number, got None"),
        "complex": (1j, "certainty weight c1 must be a real number, got 1j"),
    },
    "CertaintyWeights.c2": {
        "nan": (NAN, "certainty weight c2 must lie in [0, 1], got nan"),
        "inf": (INF, "certainty weight c2 must lie in [0, 1], got inf"),
        "-inf": (-INF, "certainty weight c2 must lie in [0, 1], got -inf"),
        "negative": (-0.5, "certainty weight c2 must lie in [0, 1], got -0.5"),
        "above-1": (1.5, "certainty weight c2 must lie in [0, 1], got 1.5"),
        "bool": (True, "certainty weight c2 must be a real number, got True"),
        "int": (1, Accepted("an int is a real number, and 1 >= 1 >= 0.3")),
        "str": ("0.5", "certainty weight c2 must be a real number, got '0.5'"),
        "none": (None, "certainty weight c2 must be a real number, got None"),
        "complex": (0.5j, "certainty weight c2 must be a real number, got 0.5j"),
    },
    "CertaintyWeights.c3": {
        "nan": (NAN, "certainty weight c3 must lie in [0, 1], got nan"),
        "inf": (INF, "certainty weight c3 must lie in [0, 1], got inf"),
        "-inf": (-INF, "certainty weight c3 must lie in [0, 1], got -inf"),
        "negative": (-0.5, "certainty weight c3 must lie in [0, 1], got -0.5"),
        "above-1": (1.5, "certainty weight c3 must lie in [0, 1], got 1.5"),
        "bool": (True, "certainty weight c3 must be a real number, got True"),
        "int": (1, _LADDER + ", got c1=1.0, c2=0.5, c3=1"),
        "str": ("0.3", "certainty weight c3 must be a real number, got '0.3'"),
        "none": (None, "certainty weight c3 must be a real number, got None"),
        "complex": (0.3j, "certainty weight c3 must be a real number, got 0.3j"),
    },
    "mass_from_entries": {
        "nan": (NAN, "non-finite mass nan on B"),
        "inf": (INF, "non-finite mass inf on B"),
        "-inf": (-INF, "non-finite mass -inf on B"),
        "negative": (-0.5, "negative mass -0.5 on B"),
        "above-1": (1.5, "masses sum to 1.5, not 1"),
        "bool": (True, "mass on B must be a real number, got True"),
        "int": (1, Accepted("an int is a real number, and the masses sum to 1")),
        "str": ("0.5", "mass on B must be a real number, got '0.5'"),
        "none": (None, "mass on B must be a real number, got None"),
        "complex": (1j, "mass on B must be a real number, got 1j"),
    },
    # JSON has no complex number; NaN and ±inf arrive as its NaN and Infinity tokens.
    "MassFunction.from_json": {
        "nan": (NAN, "non-finite mass nan on A"),
        "inf": (INF, "non-finite mass inf on A"),
        "-inf": (-INF, "non-finite mass -inf on A"),
        "negative": (-0.5, "negative mass -0.5 on A"),
        "above-1": (1.5, "masses sum to 1.5, not 1"),
        "bool": (True, "mass on A must be a real number, got True"),
        "int": (1, Accepted("a JSON integer is a real number, and the masses sum to 1")),
        "str": ("0.5", "mass on A must be a real number, got '0.5'"),
        "none": (None, "mass on A must be a real number, got None"),
    },
    "CertaintyWeights.weight": {
        "nan": (NAN, "certainty level must be an integer, got nan"),
        "inf": (INF, "certainty level must be an integer, got inf"),
        "-inf": (-INF, "certainty level must be an integer, got -inf"),
        "negative": (-1, "certainty level must be 1, 2 or 3, got -1"),
        "above-1": (4, "certainty level must be 1, 2 or 3, got 4"),
        "bool": (True, "certainty level must be an integer, got True"),
        "float": (2.0, "certainty level must be an integer, got 2.0"),
        "str": ("2", "certainty level must be an integer, got '2'"),
        "none": (None, "certainty level must be an integer, got None"),
    },
    "TileAnnotation.level": {
        "nan": (NAN, "certainty level must be an integer, got nan"),
        "inf": (INF, "certainty level must be an integer, got inf"),
        "-inf": (-INF, "certainty level must be an integer, got -inf"),
        "negative": (-1, "certainty level must be 1, 2 or 3, got -1"),
        "above-1": (4, "certainty level must be 1, 2 or 3, got 4"),
        "bool": (True, "certainty level must be an integer, got True"),
        "float": (2.0, "certainty level must be an integer, got 2.0"),
        "str": ("2", "certainty level must be an integer, got '2'"),
        "none": (None, "certainty level must be an integer, got None"),
    },
    "check_class_counts": {
        "nan": (NAN, "class count must be an integer, got nan"),
        "inf": (INF, "class count must be an integer, got inf"),
        "-inf": (-INF, "class count must be an integer, got -inf"),
        "negative": (-1, "need at least two classes, got -1"),
        "above-1": (27, "at most 26 classes are supported, got 27"),
        "bool": (True, "class count must be an integer, got True"),
        "float": (2.5, "class count must be an integer, got 2.5"),
        "str": ("3", "class count must be an integer, got '3'"),
        "none": (None, "class count must be an integer, got None"),
    },
    "decision_change_rate.seed": {
        "nan": (NAN, "seed must be an integer, got nan"),
        "inf": (INF, "seed must be an integer, got inf"),
        "-inf": (-INF, "seed must be an integer, got -inf"),
        "negative": (-1, "seed must be a non-negative integer, got -1"),
        "above-1": (2, Accepted("a seed has no upper bound")),
        "bool": (True, "seed must be an integer, got True"),
        "float": (1.5, "seed must be an integer, got 1.5"),
        "str": ("2", "seed must be an integer, got '2'"),
        "none": (None, "seed must be an integer, got None"),
    },
    "invariance_check.seed": {
        "nan": (NAN, "seed must be an integer, got nan"),
        "inf": (INF, "seed must be an integer, got inf"),
        "-inf": (-INF, "seed must be an integer, got -inf"),
        "negative": (-1, "seed must be a non-negative integer, got -1"),
        "above-1": (2, Accepted("a seed has no upper bound")),
        "bool": (True, "seed must be an integer, got True"),
        "float": (1.5, "seed must be an integer, got 1.5"),
        "str": ("2", "seed must be an integer, got '2'"),
        "none": (None, "seed must be an integer, got None"),
    },
    "decision_change_rate.n_samples": {
        "nan": (NAN, "sample count must be an integer, got nan"),
        "inf": (INF, "sample count must be an integer, got inf"),
        "-inf": (-INF, "sample count must be an integer, got -inf"),
        "negative": (-1, "need at least one accepted pair"),
        "above-1": (2, Accepted("any positive sample count up to the cap is drawn")),
        "above-cap": (4_000_001, "at most 4000000 samples are supported, got 4000001"),
        "bool": (True, "sample count must be an integer, got True"),
        "float": (10.0, "sample count must be an integer, got 10.0"),
        "str": ("10", "sample count must be an integer, got '10'"),
        "none": (None, "sample count must be an integer, got None"),
    },
    "invariance_check.n_samples": {
        "nan": (NAN, "sample count must be an integer, got nan"),
        "inf": (INF, "sample count must be an integer, got inf"),
        "-inf": (-INF, "sample count must be an integer, got -inf"),
        "negative": (-1, "sample count cannot be negative"),
        "above-1": (2, Accepted("any non-negative sample count up to the cap is drawn")),
        "above-cap": (4_000_001, "at most 4000000 samples are supported, got 4000001"),
        "bool": (True, "sample count must be an integer, got True"),
        "float": (2.5, "sample count must be an integer, got 2.5"),
        "str": ("10", "sample count must be an integer, got '10'"),
        "none": (None, "sample count must be an integer, got None"),
    },
    "conflict_density.bins": {
        "nan": (NAN, "bin count must be an integer, got nan"),
        "inf": (INF, "bin count must be an integer, got inf"),
        "-inf": (-INF, "bin count must be an integer, got -inf"),
        "negative": (-1, "need at least one bin"),
        "above-1": (2, Accepted("any positive bin count up to the cap splits [0, 1]")),
        "above-cap": (100_001, "at most 100000 bins are supported, got 100001"),
        "bool": (True, "bin count must be an integer, got True"),
        "float": (2.5, "bin count must be an integer, got 2.5"),
        "str": ("3", "bin count must be an integer, got '3'"),
        "none": (None, "bin count must be an integer, got None"),
    },
    "make_frame": {
        "nan": (NAN, _NOT_A_LABEL + "nan"),
        "inf": (INF, _NOT_A_LABEL + "inf"),
        "-inf": (-INF, _NOT_A_LABEL + "-inf"),
        "negative": (-1, _NOT_A_LABEL + "-1"),
        "above-1": (2, _NOT_A_LABEL + "2"),
        "bool": (True, _NOT_A_LABEL + "True"),
        "float": (1.5, _NOT_A_LABEL + "1.5"),
        "str": ("B", Accepted("a class label is text")),
        "none": (None, _NOT_A_LABEL + "None"),
        "empty-str": ("", _NOT_A_LABEL + "''"),
        "padded-str": (" B", "label ' B' has surrounding whitespace"),
        "trailing-space": ("B ", "label 'B ' has surrounding whitespace"),
        "leading-tab": ("\tB", "label '\\tB' has surrounding whitespace"),
    },
    "Corpus.proportion": {
        "nan": (NAN, "proportion must lie in [0, 1], got nan"),
        "inf": (INF, "proportion must lie in [0, 1], got inf"),
        "-inf": (-INF, "proportion must lie in [0, 1], got -inf"),
        "negative": (-0.5, "proportion must lie in [0, 1], got -0.5"),
        "above-1": (1.5, "proportion must lie in [0, 1], got 1.5"),
        "bool": (True, "proportion must be a one-dimensional numeric array, "
                       "got bool with shape (1,)"),
        "int": (1, Accepted("an integer column is a numeric one, and 1 is in [0, 1]")),
        "str": ("0.5", "proportion must be a one-dimensional numeric array, "
                       "got <U3 with shape (1,)"),
        "none": (None, "proportion must be a one-dimensional numeric array, "
                       "got object with shape (1,)"),
    },
    "Corpus.level": {
        "nan": (NAN, "level must be a one-dimensional integer array, "
                     "got float64 with shape (1,)"),
        "inf": (INF, "level must be a one-dimensional integer array, "
                     "got float64 with shape (1,)"),
        "-inf": (-INF, "level must be a one-dimensional integer array, "
                       "got float64 with shape (1,)"),
        "negative": (-1, "level must be 1, 2 or 3, got -1"),
        "above-1": (4, "level must be 1, 2 or 3, got 4"),
        "bool": (True, "level must be a one-dimensional integer array, "
                       "got bool with shape (1,)"),
        "float": (2.0, "level must be a one-dimensional integer array, "
                       "got float64 with shape (1,)"),
        "str": ("2", "level must be a one-dimensional integer array, "
                     "got <U1 with shape (1,)"),
        "none": (None, "level must be a one-dimensional integer array, "
                       "got object with shape (1,)"),
    },
    "Corpus.key": {
        "ints": ((5, None), "keys must be (tile, expert) pairs of two strings, got (5, None)"),
        "empty-id": (("", "e1"), "keys must not hold an empty tile or expert id, got ('', 'e1')"),
    },
    # A tile annotation refuses the ids a corpus refuses, in the same words.
    "TileAnnotation.key": {
        "ints": ((5, None), "keys must be (tile, expert) pairs of two strings, got (5, None)"),
        "empty-id": (("", "e1"), "keys must not hold an empty tile or expert id, got ('', 'e1')"),
        "empty-expert": (("t1", ""),
                         "keys must not hold an empty tile or expert id, got ('t1', '')"),
    },
    "TileAnnotation.label": {
        "int": (3, "class label must be a non-empty string, got 3"),
        "none": (None, "class label must be a non-empty string, got None"),
        "empty-str": ("", "class label must be a non-empty string, got ''"),
        "unknown": ("lava", Accepted("the label is looked up in the frame the mass is built on")),
    },
    # Once the last value of a repeated key won.
    "MassFunction.from_json.keys": {
        "repeated-mass": ('{"frame": ["A", "B"], "model": "shafer", '
                          '"masses": {"A": 0.3, "A": 0.6, "Θ": 0.4}}',
                          "mass JSON repeats the key 'A'"),
        "repeated-frame": ('{"frame": ["A", "B"], "model": "shafer", "frame": ["A", "B", "C"], '
                           '"masses": {"A": 0.3, "Θ": 0.7}}',
                           "mass JSON repeats the key 'frame'"),
        "respelled-union": ('{"frame": ["A", "B", "C"], "model": "shafer", '
                            '"masses": {"A∪B": 0.3, "B∪A": 0.3, "Θ": 0.4}}',
                            Accepted("A∪B and B∪A are two keys for one element, "
                                     "whose masses are summed")),
    },
    # Once a str compared the one-character experts 'A' and 'B'.
    "expert_pair.experts": {
        "str": ("AB", "experts must be a sequence of ids, got the str 'AB'"),
        "list": (["A", "B"], Accepted("a list of ids is a sequence of ids")),
    },
    "load_annotations": {
        "latin-1": (_HEADER + b"\nt1,e1,sand,1,0.5\nt1,\xe9,silt,1,0.5\n",
                    "line 3: not UTF-8 text (byte 0xe9)"),
        "after-cr": (_HEADER + b"\rt1,e1,sand,1,0.5\r\xe9",
                     "line 3: not UTF-8 text (byte 0xe9)"),
        "after-crlf": (_HEADER + b"\r\nt1,e1,sand,1,0.5\r\nt1,e\xff,silt,1,0.5\r\n",
                       "line 3: not UTF-8 text (byte 0xff)"),
        "utf-8": (_HEADER + "\nt1,é1,sand,1,0.5\n".encode("utf-8"),
                  Accepted("UTF-8 text is read")),
    },
    # Each fault of annotation text, named by the line its row ends on.
    "parse_annotations": {
        "empty": ("", "line 1: empty input, expected header " + _TEXT_HEADER),
        "bad-header": ("tile,expert\n",
                       f"line 1: bad header 'tile,expert', expected {_TEXT_HEADER}"),
        "field-count": (f"{_TEXT_HEADER}\nt1,e1,sand,1\n", "line 2: expected 5 fields, got 4"),
        "unknown-class": (f"{_TEXT_HEADER}\nt1,e1,lava,1,0.5\n", "line 2: unknown class 'lava'"),
        "non-integer-level": (f"{_TEXT_HEADER}\nt1,e1,sand,1.5,0.5\n",
                              "line 2: certainty level '1.5' is not an integer"),
        "level-outside": (f"{_TEXT_HEADER}\nt1,e1,sand,4,0.5\n",
                          "line 2: certainty level must be 1, 2 or 3, got 4"),
        "non-number-proportion": (f"{_TEXT_HEADER}\nt1,e1,sand,1,half\n",
                                  "line 2: proportion 'half' is not a number"),
        "proportion-outside": (f"{_TEXT_HEADER}\nt1,e1,sand,1,1.5\n",
                               "line 2: proportion must lie in [0, 1], got 1.5"),
        "empty-tile-id": (f"{_TEXT_HEADER}\n,e1,sand,1,0.5\n", "line 2: empty tile id"),
        "empty-expert-id": (f"{_TEXT_HEADER}\nt1,,sand,1,0.5\n", "line 2: empty expert id"),
        "sum-past-1": (f"{_TEXT_HEADER}\nt1,e1,sand,1,0.7\nt1,e1,silt,1,0.7\n",
                       "line 3: proportions for tile 't1' by expert 'e1' sum to 1.4 > 1"),
        "csv-error": (f"{_TEXT_HEADER}\n{'t' * 140_000},e1,sand,1,0.5\n",
                      "line 2: field larger than field limit (131072)"),
        "plain": (f"{_TEXT_HEADER}\nt1,e1,sand,1,0.5\n", Accepted("plain annotation text is read")),
    },
    # Once the decoder's message, with a character offset and no line.
    "mass JSON file": {
        "latin-1": (b'{"frame": ["A", "B"],\n "model": "shafer", "masses": {"\xe9": 1.0}}\n',
                    "mass.json: line 2: not UTF-8 text (byte 0xe9)"),
        "after-crlf": (b'{"frame": ["A", "B"],\r\n "model": "shafer",\r\n "masses": {"A\xff": 1}}',
                       "mass.json: line 3: not UTF-8 text (byte 0xff)"),
        "utf-8": ('{"frame": ["é", "B"], "model": "shafer", "masses": {"é": 1.0}}'.encode("utf-8"),
                  Accepted("UTF-8 text is read")),
    },
}

# Every number rule meets every kind; the key and label rows are not numbers.
_NUMBER_KINDS = {"nan", "inf", "-inf", "negative", "above-1", "bool", "str", "none"}
_NOT_NUMBERS = {"Corpus.key", "TileAnnotation.key", "TileAnnotation.label",
                "MassFunction.from_json.keys", "expert_pair.experts", "load_annotations",
                "parse_annotations", "mass JSON file"}

ROWS = [
    pytest.param(entry, value, outcome, id=f"{entry}-{kind}")
    for entry, kinds in TABLE.items()
    for kind, (value, outcome) in kinds.items()
]


def test_every_entry_point_meets_every_kind_of_bad_number():
    assert TABLE.keys() == ENTRY_POINTS.keys()
    for entry, kinds in TABLE.items():
        if entry not in _NOT_NUMBERS:
            assert _NUMBER_KINDS <= kinds.keys(), entry
            assert "int" in kinds or "float" in kinds, entry


@pytest.mark.parametrize("entry, value, outcome", ROWS)
def test_each_bad_input_meets_its_row(entry, value, outcome):
    if isinstance(outcome, Accepted):
        ENTRY_POINTS[entry](value)
        return
    with pytest.raises(ValueError) as refused:
        ENTRY_POINTS[entry](value)
    assert str(refused.value) == outcome
