"""Mutated saved files: every loader gives back what was saved or raises
ValueError, never another exception.

Each example takes a file written by save_projectors, save_group or
save_windows and drops, duplicates or truncates lines, cuts the file short,
or replaces tokens. A projector file or a group file is only accepted when it
matches its rebuilt group exactly, so an accepted mutant must load as the
original. A window file loads as one WindowSet, so it is accepted only when
its records are well formed and share the first record's alphabet size and
window length; an accepted window mutant must load as exactly what it says:
saving it again gives the same tokens line for line.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoattn.groups import from_descriptor, from_permutations, load_group, save_group
from isoattn.irreps import load_projectors, projector_set, save_projectors
from isoattn.synth import DatasetSpec, load_windows, make_dataset, save_windows

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# Replacement tokens: numbers in canonical form, descriptors, keywords and
# junk. Free text is drawn without digits, so a number never re-saves
# differently from how it was written ("01" would come back as "1").
TOKENS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "-1", "9", "26", "27", "120", "121", "99999999",
                     "0.5", "-0", "nan", "inf", "", "custom", "cyclic:3", "mirror:3",
                     "dihedral:4", "cyclic:121", "group", "window", "irrep", "elem",
                     "mult", "order", "A", "AC", "ACGT", "ZZ"]),
    st.text(alphabet="ACGTXZ:.-_", max_size=4))


@st.composite
def edit(draw, lines):
    if not lines:
        return lines
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(("drop", "duplicate", "truncate", "cut", "replace")))
    if op == "drop":
        return lines[:i] + lines[i + 1:]
    if op == "duplicate":
        return lines[:i + 1] + lines[i:]
    if op == "cut":
        return lines[:i]
    if op == "truncate":
        return lines[:i] + [lines[i][:draw(st.integers(0, len(lines[i])))]] + lines[i + 1:]
    toks = lines[i].split()
    if not toks:
        return lines
    toks[draw(st.integers(0, len(toks) - 1))] = draw(TOKENS)
    return lines[:i] + [" ".join(toks)] + lines[i + 1:]


@st.composite
def mutants(draw, saved, max_edits):
    """One of the saved files, by index, and its lines after 1..max_edits edits."""
    index = draw(st.integers(0, len(saved) - 1))
    lines = saved[index]
    for _ in range(draw(st.integers(1, max_edits))):
        lines = draw(edit(lines))
    return index, lines


def write(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("mutant") / "file.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def saved_lines(tmp_path_factory, save, obj):
    path = tmp_path_factory.mktemp("saved") / "file.txt"
    save(obj, str(path))
    return path.read_text(encoding="utf-8").splitlines()


PROJECTOR_SETS = [projector_set(from_descriptor(d)) for d in ("cyclic:3", "dihedral:4", "mirror:2")]
GROUPS = [from_descriptor(d) for d in ("dihedral:4", "cyclic:5", "mirror:4")] + [
    from_permutations(list(itertools.permutations(range(3))))]
WINDOW_SETS = [make_dataset(DatasetSpec(task="palindrome", n=6, k=5, noise_p=0.2, seed=3)).train,
               make_dataset(DatasetSpec(task="cyclic", n=6, k=6, alphabet_size=3, seed=4)).train]


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    return {
        "projectors": [saved_lines(tmp_path_factory, save_projectors, ps) for ps in PROJECTOR_SETS],
        "groups": [saved_lines(tmp_path_factory, save_group, g) for g in GROUPS],
        "windows": [saved_lines(tmp_path_factory, save_windows, ws) for ws in WINDOW_SETS],
    }


@SETTINGS
@given(data=st.data())
def test_mutated_projector_file_loads_as_saved_or_raises(saved, tmp_path_factory, data):
    index, lines = data.draw(mutants(saved["projectors"], 3))
    try:
        back = load_projectors(write(tmp_path_factory, lines))
    except ValueError:
        return
    assert back.stack.tobytes() == PROJECTOR_SETS[index].stack.tobytes()


@SETTINGS
@given(data=st.data())
def test_mutated_group_file_loads_as_saved_or_raises(saved, tmp_path_factory, data):
    index, lines = data.draw(mutants(saved["groups"], 1))
    try:
        back = load_group(write(tmp_path_factory, lines))
    except ValueError:
        return
    g = GROUPS[index]
    assert (back.descriptor, back.kind, back.n, back.degree) == (g.descriptor, g.kind, g.n, g.degree)
    assert back.perm.tolist() == g.perm.tolist()
    assert back.cayley.tobytes() == g.cayley.tobytes()


@SETTINGS
@given(data=st.data())
def test_mutated_window_file_loads_as_written_or_raises(saved, tmp_path_factory, data):
    _, lines = data.draw(mutants(saved["windows"], 3))
    try:
        back = load_windows(write(tmp_path_factory, lines))
    except ValueError:
        return
    resaved = saved_lines(tmp_path_factory, save_windows, back)
    assert [line.split() for line in resaved] == [line.split() for line in lines if line.strip()]
