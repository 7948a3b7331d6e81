"""The reachability audit's own scan and tracer (``tests/reachability.py``).

The audit keys each function by the line its code object reports as
``co_firstlineno``; these tests hold the AST scan and the tracer to the
same keys on a small module, so a function the product does call is
never reported as unreached.
"""

import ast
import asyncio
import os

from tests.reachability import Tracer, functions

MODULE = '''\
import asyncio


def decorate(function):
    return function


@decorate
@decorate
def decorated():
    def nested():
        return 1

    return nested()


class Service:
    async def handle(self):
        return decorated()


def on_done(future):
    future.result()


def never():
    return 0


def declared():
    """A docstring and an ellipsis: an interface, not behaviour."""
    ...


async def main():
    future = asyncio.get_running_loop().create_future()
    future.add_done_callback(on_done)
    future.set_result(await Service().handle())
    await asyncio.sleep(0)  # the loop runs the callback
'''


def test_the_scan_keys_functions_as_their_code_objects_do():
    found = functions(ast.parse(MODULE))
    lines = MODULE.splitlines()
    by_name = {name: line for line, name in found.items()}
    assert set(by_name) == {
        "decorate", "decorated", "decorated.<locals>.nested", "Service.handle",
        "on_done", "never", "main",
    }
    # A decorated function is keyed by its first decorator's line.
    assert lines[by_name["decorated"] - 1] == "@decorate"
    assert lines[by_name["decorated"]] == "@decorate"
    assert lines[by_name["Service.handle"] - 1].strip().startswith("async def handle")


def test_the_tracer_reaches_callbacks_nested_and_async_code(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    namespace: dict = {}
    tracer = Tracer()
    tracer.start()
    try:
        exec(compile(MODULE, str(path), "exec"), namespace)
        asyncio.run(namespace["main"]())
    finally:
        tracer.stop()
    reached = {line for file, line in tracer.reached() if file == os.path.realpath(path)}
    unreached = {name for line, name in functions(ast.parse(MODULE)).items() if line not in reached}
    # on_done runs only as a done callback, from the event loop: reached.
    assert unreached == {"never"}
