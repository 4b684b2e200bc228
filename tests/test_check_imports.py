from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_imports.py"


def load():
    spec = importlib.util.spec_from_file_location("check_imports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''\
import os
import sys


def used():
    from pathlib import Path
    return Path(os.sep)


def unused(flag):
    if flag:
        import json
    return flag


class Holder:
    def method(self):
        import csv
        from itertools import chain
        return chain()
'''


def test_flags_unused_imports_at_module_and_function_level():
    assert load().unused_imports(SOURCE) == [(2, "sys"), (12, "json"), (18, "csv")]


def test_a_local_import_counts_as_used_only_in_its_own_function():
    source = "def a():\n    import json\n\ndef b():\n    return json\n"
    assert load().unused_imports(source) == [(2, "json")]
