"""Unit tests for the segmented memory map."""

import pytest

from repro.isa.memory import (
    ADDRESS_SPACE,
    INPUT_PORT,
    MMIO_BASE,
    MemoryMap,
    NVM_BASE,
    OUTPUT_PORT,
    RAM_BASE,
)

COUNTERS = ("ram_reads", "ram_writes", "nvm_reads", "nvm_writes")


def counters(mem):
    """The four region access counters, by name."""
    return {name: getattr(mem, name) for name in COUNTERS}


class TestRegions:
    @pytest.mark.parametrize(
        "address,region",
        [
            (RAM_BASE, "ram"),
            (NVM_BASE - 1, "ram"),
            (NVM_BASE, "nvm"),
            (MMIO_BASE - 1, "nvm"),
            (MMIO_BASE, "mmio"),
            (ADDRESS_SPACE - 1, "mmio"),
        ],
    )
    def test_region_boundaries(self, address, region):
        assert MemoryMap.region(address) == region

    @pytest.mark.parametrize("address", [-1, ADDRESS_SPACE])
    def test_out_of_range_rejected(self, address):
        with pytest.raises(ValueError):
            MemoryMap.region(address)

    @pytest.mark.parametrize("address", [-1, ADDRESS_SPACE])
    def test_out_of_range_access_rejected(self, address):
        mem = MemoryMap()
        with pytest.raises(ValueError):
            mem.read(address)
        with pytest.raises(ValueError):
            mem.write(address, 1)
        assert counters(mem) == dict.fromkeys(COUNTERS, 0)
        assert mem.output == []


class TestReadWrite:
    def test_values_truncate_to_16_bits(self):
        mem = MemoryMap()
        mem.write(0x100, 0x12345)
        assert mem.read(0x100) == 0x2345

    def test_access_counters_by_region(self):
        mem = MemoryMap()
        mem.write(0x10, 1)
        mem.write(NVM_BASE, 2)
        mem.read(0x10)
        mem.read(NVM_BASE)
        mem.read(NVM_BASE + 1)
        assert (mem.ram_writes, mem.nvm_writes) == (1, 1)
        assert (mem.ram_reads, mem.nvm_reads) == (1, 2)

    def test_every_address_charges_the_region_it_names(self):
        """One read and one write of each address raise exactly the
        counter ``region`` names (none for MMIO); only the ports have
        side effects beyond the word itself."""
        mem = MemoryMap()
        mem.input_queue.extend([11, 12])
        for address in range(ADDRESS_SPACE):
            region = MemoryMap.region(address)
            read = dict.fromkeys(COUNTERS, 0)
            write = dict.fromkeys(COUNTERS, 0)
            if region != "mmio":
                read[f"{region}_reads"] = 1
                write[f"{region}_writes"] = 1
            before = counters(mem)
            value = mem.read(address)
            middle = counters(mem)
            mem.write(address, 0x1234)
            after = counters(mem)
            assert value == (11 if address == INPUT_PORT else 0), hex(address)
            delta_read = {k: middle[k] - before[k] for k in COUNTERS}
            delta_write = {k: after[k] - middle[k] for k in COUNTERS}
            assert delta_read == read, hex(address)
            assert delta_write == write, hex(address)
        assert mem.input_queue == [12]
        assert mem.output == [0x1234]
        assert mem._words[OUTPUT_PORT] == 0

    def test_output_port_appends(self):
        mem = MemoryMap()
        mem.write(OUTPUT_PORT, 5)
        mem.write(OUTPUT_PORT, 6)
        assert mem.output == [5, 6]

    def test_input_port_pops(self):
        mem = MemoryMap()
        mem.input_queue.extend([10, 20])
        assert mem.read(INPUT_PORT) == 10
        assert mem.read(INPUT_PORT) == 20
        assert mem.read(INPUT_PORT) == 0  # empty queue reads as zero

    def test_other_mmio_words_are_plain_storage(self):
        mem = MemoryMap()
        mem.write(MMIO_BASE + 5, 77)
        assert mem.read(MMIO_BASE + 5) == 77


class TestBulkOps:
    def test_load_image(self):
        mem = MemoryMap()
        mem.load_image({0x8000: 9, 0x8002: 11})
        assert mem._words[0x8000:0x8003] == [9, 0, 11]
        assert mem.nvm_writes == 0

    def test_load_image_into_mmio_rejected(self):
        mem = MemoryMap()
        with pytest.raises(ValueError):
            mem.load_image({MMIO_BASE: 1})


class TestVolatility:
    def test_clear_volatile_wipes_ram_only(self):
        mem = MemoryMap()
        mem.write(0x100, 42)
        mem.write(RAM_BASE, 1)
        mem.write(NVM_BASE - 1, 2)
        mem.write(NVM_BASE, 3)
        mem.write(NVM_BASE + 4, 43)
        mem.write(MMIO_BASE + 5, 77)
        mem.write(OUTPUT_PORT, 9)
        charged = counters(mem)
        mem.clear_volatile()
        assert len(mem._words) == ADDRESS_SPACE
        ram_words = NVM_BASE - RAM_BASE
        assert mem._words[RAM_BASE:NVM_BASE] == [0] * ram_words
        assert mem._words[NVM_BASE] == 3
        assert mem._words[MMIO_BASE + 5] == 77
        assert mem.output == [9]
        assert counters(mem) == charged
        assert mem.read(0x100) == 0
        assert mem.read(NVM_BASE + 4) == 43
