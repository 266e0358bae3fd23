"""Tests for the removed CLI spellings.

The two old spellings — ``--payload-bytes`` (canonical: ``--payload``)
and positional all-reduce shapes (canonical: repeatable ``--shape``)
served one deprecation cycle and are gone: argparse rejects them with
its usual usage error (exit status 2).
"""

import argparse

import pytest

from repro.__main__ import _canonical_parent, _parse_shape, main


def _parse(argv):
    parser = argparse.ArgumentParser(parents=[_canonical_parent()])
    return parser.parse_args(argv)


class TestPayloadBytesAlias:
    def test_old_spelling_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(["--payload-bytes", "64"])
        assert exc.value.code == 2
        assert "--payload-bytes" in capsys.readouterr().err

    def test_canonical_spelling_is_silent(self, recwarn):
        ns = _parse(["--payload", "32"])
        assert ns.payload == 32
        assert not [w for w in recwarn if w.category is DeprecationWarning]


class TestAllreducePositionalShapes:
    def test_positional_shape_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["allreduce", "2x2x2"])
        assert exc.value.code == 2
        assert "2x2x2" in capsys.readouterr().err

    def test_parse_shape_rejects_garbage(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_shape("not-a-shape")
