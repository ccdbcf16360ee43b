"""Print the characteristic-class tables pinned by
``tests/golden/characteristic-classes.json``.

The tables are the weight-k polynomials L_k of both shipped genus series
and the Chern character polynomials ch_m, for k, m = 0..5, each in the
``to_json`` form of :class:`tautsig.mult_seq.CharClassPolynomial`.  The
script needs only the standard library, so it also runs where numpy is
absent:

    PYTHONPATH=src python tests/characteristic_class_tables.py \\
        | cmp - tests/golden/characteristic-classes.json
"""

import json

from tautsig.mult_seq import chern_character_polynomial, expand_series, genus_components

SERIES = ("L-hirzebruch", "L-atiyah-singer")
WEIGHTS = range(6)


def tables() -> dict:
    out = {
        series: {
            str(k): genus_components(expand_series(series, 2 * k), k).to_json()
            for k in WEIGHTS
        }
        for series in SERIES
    }
    out["chern-character"] = {str(m): chern_character_polynomial(m).to_json() for m in WEIGHTS}
    return out


def render() -> str:
    return json.dumps(tables(), indent=2) + "\n"


if __name__ == "__main__":
    print(render(), end="")
