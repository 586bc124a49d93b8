"""Published census values the pipeline is verified against.

Ratios are the published five-decimal strings, which a census report
prints the same way, so verify compares them as text; counts are exact.
Entries beyond n=8 are out of desk-scale reach and kept for the
extrapolation inputs and extended runs.
"""

KNOWN_CLASS_COUNTS = {
    1: 1,
    2: 2,
    3: 11,
    4: 185,
    5: 8782,
    6: 1067825,
    7: 312510571,
    8: 212133402500,
    9: 326266056291213,
    10: 1118902054495975141,
}

KNOWN_RATIOS = {
    1: "1.00000",
    2: "0.66667",
    3: "0.44000",
    4: "0.34070",
    5: "0.29992",
    6: "0.28238",
    7: "0.27443",
    8: "0.27068",
    9: "0.26888",
    10: "0.26799",
}

KNOWN_SIZE1_RATIOS = {
    1: "1.00000",
    2: "0.50000",
    3: "0.36364",
    4: "0.31892",
    5: "0.29788",
    6: "0.28667",
    7: "0.28068",
    8: "0.27754",
    9: "0.27590",
    10: "0.27507",
}

KNOWN_MAX_VCONFIGS = {1: 0, 2: 0, 3: 1, 4: 4, 5: 9, 6: 18, 7: 30, 8: 48, 9: 70, 10: 100}

KNOWN_MAX_CLASSES = {1: 1, 2: 1, 3: 2, 4: 6, 5: 22, 6: 104, 7: 594, 8: 3978,
                     9: 30768, 10: 257694}

# unlabeled simple graphs per vertex count (Stein & Stein / Oberschelp series)
KNOWN_UNLABELED_GRAPHS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
