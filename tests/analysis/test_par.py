"""Concurrency-lint tests: one positive and one negative case per PAR rule."""

import textwrap

from repro.analysis.par import check_concurrency_paths, check_concurrency_source, main


def codes(source, path="src/repro/bench/somewhere.py"):
    return [d.code for d in check_concurrency_source(textwrap.dedent(source), path)]


_POOL_PREAMBLE = "from concurrent.futures import ProcessPoolExecutor\n"


class TestPar001GlobalMutation:
    def test_global_assignment_flagged(self):
        src = _POOL_PREAMBLE + textwrap.dedent(
            """
            _CACHE = None

            def warm(x):
                global _CACHE
                _CACHE = x
            """
        )
        assert codes(src) == ["PAR001"]

    def test_global_read_only_clean(self):
        src = _POOL_PREAMBLE + textwrap.dedent(
            """
            LIMIT = 4

            def f():
                return LIMIT
            """
        )
        assert codes(src) == []

    def test_no_executor_module_clean(self):
        src = """
        _CACHE = None

        def warm(x):
            global _CACHE
            _CACHE = x
        """
        assert codes(src) == []

    def test_justified_noqa_suppresses(self):
        src = _POOL_PREAMBLE + textwrap.dedent(
            """
            _CACHE = None

            def warm(x):
                global _CACHE  # noqa: PAR001
                _CACHE = x
            """
        )
        assert codes(src) == []


class TestPar002NonAtomicWrites:
    def test_open_write_mode_flagged(self):
        src = """
        def save(path, text):
            with open(path, "w") as fh:
                fh.write(text)
        """
        assert codes(src) == ["PAR002"]

    def test_write_text_flagged(self):
        assert codes("path.write_text(data)\n") == ["PAR002"]

    def test_json_dump_flagged(self):
        assert codes("json.dump(payload, fh)\n") == ["PAR002"]

    def test_open_read_mode_clean(self):
        src = """
        def load(path):
            with open(path, "r") as fh:
                return fh.read()
        """
        assert codes(src) == []

    def test_non_persistence_package_clean(self):
        assert codes("path.write_text(data)\n", path="src/repro/util/report.py") == []

    def test_repo_persistence_writes_are_atomic(self):
        report = check_concurrency_paths(["src"])
        assert [str(d) for d in report.diagnostics if d.code == "PAR002"] == []


class TestPar003ForkCaptures:
    def test_lambda_submit_flagged(self):
        src = _POOL_PREAMBLE + textwrap.dedent(
            """
            def run(pool, x):
                return pool.submit(lambda: x + 1)
            """
        )
        assert codes(src) == ["PAR003"]

    def test_nested_function_submit_flagged(self):
        src = _POOL_PREAMBLE + textwrap.dedent(
            """
            def run(pool, xs):
                def work(x):
                    return x + 1
                return pool.map(work, xs)
            """
        )
        assert codes(src) == ["PAR003"]

    def test_lambda_initializer_flagged(self):
        src = _POOL_PREAMBLE + textwrap.dedent(
            """
            def run(ev):
                return ProcessPoolExecutor(2, initializer=lambda: ev)
            """
        )
        assert codes(src) == ["PAR003"]

    def test_os_fork_flagged(self):
        assert codes("import os\npid = os.fork()\n") == ["PAR003"]

    def test_nested_process_target_flagged(self):
        src = textwrap.dedent(
            """
            import multiprocessing

            def run(out):
                def work():
                    return out
                ctx = multiprocessing.get_context()
                ctx.Process(target=work).start()
                multiprocessing.Process(target=lambda: out).start()
            """
        )
        assert codes(src) == ["PAR003", "PAR003"]

    def test_module_level_process_target_and_thread_closure_clean(self):
        src = textwrap.dedent(
            """
            import multiprocessing
            import threading

            def work(out):
                return out

            def run(out):
                def beside():
                    return out
                multiprocessing.get_context().Process(target=work, args=(out,)).start()
                threading.Thread(target=beside).start()
            """
        )
        assert codes(src) == []

    def test_module_level_worker_clean(self):
        src = _POOL_PREAMBLE + textwrap.dedent(
            """
            def work(x):
                return x + 1

            def run(pool, xs):
                return pool.map(work, xs)
            """
        )
        assert codes(src) == []


class TestSuppression:
    def test_noqa_code_suppresses(self):
        assert codes("path.write_text(data)  # noqa: PAR002\n") == []

    def test_other_code_does_not_suppress(self):
        assert codes("path.write_text(data)  # noqa: PAR001\n") == ["PAR002"]


class TestDriver:
    def test_repo_src_is_clean(self):
        report = check_concurrency_paths(["src"])
        assert [str(d) for d in report.diagnostics] == []

    def test_main_exit_codes(self, tmp_path):
        bad = tmp_path / "repro" / "bench" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("path.write_text(data)\n")
        assert main([str(bad)]) == 1
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good)]) == 0
