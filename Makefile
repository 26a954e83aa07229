# Canonical workflows for the MVCom reproduction.

.PHONY: install test lint bench figures examples storm serve clean

install:
	pip install -e . || python setup.py develop   # offline envs lack wheel

test:
	pytest tests/

# Determinism & contract linter (per-file rules MV001-MV009 and MV102, the
# wall-clock/entropy check); non-zero on findings.
lint:
	PYTHONPATH=src python -m repro.analysis src/

bench:
	pytest benchmarks/ --benchmark-only

# Regenerate every paper figure + CSV/JSON artifacts under results/.
figures:
	python -m repro.harness.cli all

examples:
	for script in examples/*.py; do echo "== $$script"; python $$script; done

# Churn-storm fault injection with event-boundary invariants armed
# (repro.faultinject); non-zero exit + shrunk reproducer on a violation.
storm:
	REPRO_CONTRACTS=1 PYTHONPATH=src python -m repro.harness.cli storm \
		--seed 0 --events 200 --committees 40 --gamma 4 --iterations 1200 \
		--shrink --out storm_reproducer.json

# Steady-state scheduling service: warm-started epoch chaining over the
# Bitcoin-trace mempool feeder, with live metrics/SLO sinks attached.
serve:
	REPRO_CONTRACTS=1 PYTHONPATH=src python -m repro.harness.cli serve \
		--epochs 8 --committees 60 --gamma 10 --iterations 1500 \
		--out serve_report.json

clean:
	rm -rf results/*.csv results/*.json .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
