import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_every_top_level_name_of_the_package_is_used_outside_tests():
    spec = importlib.util.spec_from_file_location("src_size", REPO / "scripts" / "src_size.py")
    src_size = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_size)
    assert src_size.unused_definitions(REPO / "src" / "splitft") == []
