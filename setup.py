"""Packaging for the HyperBench reproduction library."""

from pathlib import Path

from setuptools import find_packages, setup

_HERE = Path(__file__).parent
_README = _HERE / "README.md"

setup(
    name="repro-hyperbench",
    version="1.2.0",
    description=(
        "Reproduction of 'HyperBench: A Benchmark and Tool for Hypergraphs "
        "and Empirical Findings' — hypergraph decompositions, benchmark "
        "generators, a parallel cache-backed decomposition engine, and a "
        "coalescing HTTP batch service over a shared result store"
    ),
    long_description=_README.read_text(encoding="utf-8") if _README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy", "networkx"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Mathematics",
        "Topic :: Database",
    ],
)
