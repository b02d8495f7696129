"""``tests/output_digest.py --moved``: two outputs compared number by number."""
from output_digest import moved

JSON = ('{"branches": [{"label": "+45/up", "probability": 0.25, "m": [[0.5, 0.0], [0.1, -0.2]]},'
        ' {"label": "-45/up", "probability": NaN, "m": [[1, 2]]}]}')
CSV = "swept_value,branch_label,probability\n0.5,+45/up,0.25\n1.0,-45/up,nan\n"


def test_a_json_pair_moves_by_its_numbers():
    new = JSON.replace("0.1,", "0.10000000000000002,").replace("[1, 2]", "[1, 2.5]")
    assert moved(JSON.encode(), new.encode()) == (
        2, 8, 0.5, ["branches[0].m[][]", "branches[1].m[][]"])
    assert moved(JSON.encode(), JSON.encode()) == (0, 8, 0.0, [])  # NaN equals NaN
    assert moved(JSON.encode(), JSON.replace("0.25", "Infinity").encode())[2] == float("inf")
    for other in (JSON.replace('"-45/up"', '"-45/down"'), JSON.replace("[[1, 2]]", "[[1]]"),
                  JSON.replace("0.25", '"0.25"')):
        assert moved(JSON.encode(), other.encode()) is None


def test_a_csv_pair_moves_by_its_cells():
    new = CSV.replace("0.25", "0.2500000000000001")
    assert moved(CSV.encode(), new.encode()) == (1, 4, 0.2500000000000001 - 0.25,
                                                 ["probability"])
    for other in (CSV.replace("-45/up", "-45/down"), CSV + "1.5,+45/up,0.5\n",
                  CSV.replace("probability", "fidelity")):
        assert moved(CSV.encode(), other.encode()) is None
