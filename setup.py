from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The runtime is stdlib-only.  The test extra adds the runner and the
    # libraries the tests hold in-tree code against (the KS statistic,
    # shortest-path tie-breaks).
    python_requires=">=3.11",
    extras_require={"test": ["pytest", "hypothesis", "scipy", "networkx"]},
    entry_points={
        "console_scripts": [
            # The unified CLI, same surface as `python -m repro`; the
            # subcommands are listed in repro/cli.py's module docstring.
            "repro = repro.cli:main",
        ],
    },
)
