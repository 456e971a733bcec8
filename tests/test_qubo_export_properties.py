"""Property test of the QUBO export loader on malformed input: a small valid
export, mutated line by line and token by token, must load to exactly what
the per-line reference loads, or be refused with a ``ValueError`` that
quotes one of its lines (the header, if that is malformed). The loader reads
only the writer's format, so it refuses many texts the reference loads; it
never loads one the reference refuses, nor to another matrix."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_qubo import quotes_a_line, reference_load
from turbobalance import BladeSet, DiskImbalance, build_qubo, export_qubo
from turbobalance.qubo import load_qubo_export

#: tokens that replace one field: indices in and out of range, values, and
#: text that ``int`` or ``float`` read but numpy's parser may refuse, or the reverse
TOKENS = [
    "0", "1", "4", "8", "9", "-1", "+2", "03", "1_0", "1_0.5", "\u0661", "\u0663", "\uff12",
    "\u0663.\u0665", "3.0", "1e0", "-0.0", "1e400", "nan", "-nan", "inf", "-inf", "Infinity",
    "0x1", "x", "#", "dim", "offset", "",
]
#: separators that join a line's tokens after a replacement
SEPARATORS = [" ", "\t", "  ", "\x0b", "\x0c", "\xa0", "\u2003", "\u3000", " \t "]
#: characters inserted anywhere in a line: odd whitespace, line breaks that
#: ``str.splitlines`` sees and text streams do not, digits and separators
INSERTS = [" ", "\t", "\x0b", "\x0c", "\r", "\n", "\x1c", "\x85", "\xa0", "\u2003",
           "\u3000", "_", "\u0661", "\uff12", "0", "-", ".", "e"]


def _base_export() -> list:
    """A dim-9 export (46 entry lines), as lines that keep their newline."""
    buffer = io.StringIO()
    export_qubo(build_qubo(BladeSet([3.0, 1.0, 2.0]), DiskImbalance(2.0, 0.5)), buffer)
    return buffer.getvalue().splitlines(keepends=True)


BASE = _base_export()


@st.composite
def mutated_exports(draw):
    lines = list(BASE)
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "join", "token", "insert"]))
        k = draw(st.integers(0, len(lines) - 1))
        if kind == "delete":
            del lines[k]
        elif kind == "duplicate":
            # next to the original, so both often fall in one chunk: the
            # copy may name the pair as j i and carry another value
            tokens = lines[k].split()
            if len(tokens) == 3 and draw(st.booleans()):
                tokens[:2] = tokens[1::-1]
            if len(tokens) == 3 and draw(st.booleans()):
                tokens[2] = draw(st.sampled_from(TOKENS))
            lines.insert(k + 1, " ".join(tokens) + "\n")
        elif kind == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[other] = lines[other], lines[k]
        elif kind == "join":  # two lines made one, at a separator
            lines[k:k + 2] = [lines[k].rstrip("\n") + draw(st.sampled_from(INSERTS))
                              + "".join(lines[k + 1:k + 2])]
        elif kind == "token":
            tokens = lines[k].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
            lines[k] = draw(st.sampled_from(SEPARATORS)).join(tokens) + "\n"
        else:
            at = draw(st.integers(0, len(lines[k])))
            lines[k] = lines[k][:at] + draw(st.sampled_from(INSERTS)) + lines[k][at:]
    return "".join(lines)


def _header_fault(text):
    """None if ``text`` starts with a well-formed header; otherwise the text
    the loader's message must hold: the header line quoted, or "empty"."""
    lines = [ln for ln in io.StringIO(text) if ln.strip()]
    if not lines:
        return "empty"
    head = lines[0].split()
    try:
        if len(head) == 5 and head[:2] == ["#", "dim"] and head[3] == "offset" and int(head[2]) >= 0:
            float(head[4])
            return None
    except ValueError:
        pass
    return repr(lines[0].strip())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=mutated_exports())
def test_load_equals_the_reference_or_quotes_the_line(text):
    # blocks of 40 characters, about two lines, cut lines in the middle, and
    # carry the last pair key of each block to the next
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("turbobalance.qubo.EXPORT_CHUNK_CHARS", 40)
        try:
            matrix, offset = load_qubo_export(io.StringIO(text))
            refused = None
        except ValueError as err:
            refused = str(err)
    fault = _header_fault(text)
    if fault is not None:
        assert refused is not None and fault in refused, (fault, refused)
        return
    try:
        expected, expected_offset = reference_load(text)
    except ValueError:
        expected = None
    if refused is not None:
        assert quotes_a_line(refused, text), refused
        return
    assert expected is not None, "loaded a text the reference refuses"
    assert matrix.tobytes() == expected.tobytes()
    assert repr(offset) == repr(expected_offset)
