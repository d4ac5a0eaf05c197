#!/usr/bin/env python3
"""Walk the two-expert running example through every declaration model.

Expert 1 says the tile is A with certainty 0.6; expert 2 says half A, half
B with certainties 0.6 and 0.4.  For each model the script prints the
combined mass with all decision criteria, then the redistribution variant
where it differs, and closes with the instability example where the two
combination rules pick different classes.
"""

from expertfuse import (
    Criterion,
    ExpertDeclaration,
    Model,
    build_m1,
    build_m2,
    build_m3,
    build_m4,
    build_m5,
    combine_conjunctive,
    combine_pcr5,
    criteria_table,
    decide,
    redistribute_conjunctions,
)
from expertfuse.cli import print_criteria_table

EXPERT_1 = ExpertDeclaration.says_a(0.6)
EXPERT_2 = ExpertDeclaration.says_both(0.5, 0.6, 0.4)


def show(title, mass):
    print(f"\n== {title} ==")
    print_criteria_table(criteria_table(mass))
    atoms = mass.frame.atoms()
    report = decide(mass, Criterion.PIGNISTIC, atoms)
    print(f"decision (pignistic over singletons): {report.chosen}")


def main() -> None:
    for name, builder in (("M1", build_m1), ("M2", build_m2),
                          ("M3", build_m3), ("M4", build_m4)):
        fused = combine_conjunctive([builder(EXPERT_1), builder(EXPERT_2)])
        show(f"model {name}, conjunctive", fused)

    m4 = combine_pcr5(build_m4(EXPERT_1), build_m4(EXPERT_2))
    show("model M4, pcr5 projected onto exclusive classes",
         redistribute_conjunctions(m4))

    for model, label in ((Model.SHAFER, "exclusive"), (Model.FREE, "free")):
        pair = [build_m5(EXPERT_1, model), build_m5(EXPERT_2, model)]
        show(f"model M5 ({label}), conjunctive", combine_conjunctive(pair))
    pair = [build_m5(EXPERT_1), build_m5(EXPERT_2)]
    show("model M5 (exclusive), pcr5", combine_pcr5(*pair))

    print("\n== decision instability ==")
    first = build_m5(ExpertDeclaration.says_both(0.5, 0.6, 0.4))
    second = build_m5(ExpertDeclaration.says_both(0.5, 0.86, 1.0))
    consensus = combine_conjunctive([first, second])
    redistributed = combine_pcr5(first, second)
    for title, mass in (("conjunctive", consensus), ("pcr5", redistributed)):
        choice = decide(mass, Criterion.PIGNISTIC, mass.frame.atoms())
        values = ", ".join(
            f"betP({el}) = {v:.4f}" for el, v in choice.values
        )
        print(f"{title}: {values} -> {choice.chosen}")


if __name__ == "__main__":
    main()
