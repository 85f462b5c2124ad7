import ast
import sys
from pathlib import Path

import salad


def test_package_imports_only_numpy_and_the_standard_library():
    """At runtime the package needs numpy and nothing else."""
    for path in sorted(Path(salad.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "numpy" or top in sys.stdlib_module_names, f"{path.name} imports {name}"
