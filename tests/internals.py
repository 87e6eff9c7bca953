"""Test helpers that read the structures module's private tables and term
parts; tests/test_structures.py and tests/test_enumerator.py share them."""

from species import structures


def _joined(term):
    """A term's sort parts with every child key joined back into text."""
    return "".join(term._sort_parts(_joined))


def _tables_empty():
    """True when the label, run and set tables hold nothing."""
    return not (structures._CODES or structures._RUN_CODES
                or structures._RUN_TEXTS or structures._SETS)
