"""Factory wiring case: the pool comes from ``sim.good_runner.new_pool``,
whose ``ProcessPoolExecutor`` call wires the initializer, so the same
global-reading submission that server.py makes is clean here."""

from concurrent.futures import ProcessPoolExecutor

from service.api import execute_request
from sim.good_runner import new_pool


class FactoryServer:
    def __init__(self, loop, root):
        self.loop = loop
        self.pool: ProcessPoolExecutor = new_pool(root)

    async def handle(self, request):
        return await self.loop.run_in_executor(
            self.pool, execute_request, request
        )
