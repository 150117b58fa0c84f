import os

import workloads


def _argvs(decks):
    return [[job["argv"] for job in deck] for deck in decks]


def test_same_seed_same_argv_lists():
    for name in ("kernel-scan", "shift-sections", "readme-small"):
        assert _argvs(workloads.make_decks(name, 5, decks=3)) == _argvs(workloads.make_decks(name, 5, decks=3))


def test_other_seed_other_argv_lists():
    for name in ("kernel-scan", "shift-sections", "readme-small"):
        assert _argvs(workloads.make_decks(name, 5, decks=3)) != _argvs(workloads.make_decks(name, 6, decks=3))


def _matrices(tmp_path, sub, seed):
    decks = workloads.make_decks("dense-ops", seed, str(tmp_path / sub), decks=2)
    paths = [job["argv"][job["argv"].index("--operator") + 1] for deck in decks for job in deck]
    data = []
    for p in paths:
        with open(p, "rb") as fh:
            data.append(fh.read())
    return [os.path.basename(p) for p in paths], data


def test_dense_matrices_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    names_a, data_a = _matrices(tmp_path, "a", 3)
    names_b, data_b = _matrices(tmp_path, "b", 3)
    names_c, data_c = _matrices(tmp_path, "c", 4)
    assert names_a == names_b and data_a == data_b
    assert data_a != data_c


def _size(argv):
    for flag in ("-N", "--section", "--nmax"):
        if flag in argv:
            return argv[argv.index(flag) + 1]
    return None


def test_every_deck_has_the_same_commands_and_sizes():
    for name in ("kernel-scan", "shift-sections", "readme-small"):
        shapes = {
            tuple(sorted((j["argv"][0], j["argv"][1], str(_size(j["argv"]))) for j in deck))
            for seed in (1, 2)
            for deck in workloads.make_decks(name, seed, decks=3)
        }
        assert len(shapes) == 1, name


def test_probe_parameters_keep_the_threshold_margin():
    for s, a, p in workloads.probe_triples():
        assert abs(a - p * (1 - s) / 2) >= workloads.THRESHOLD_MARGIN
