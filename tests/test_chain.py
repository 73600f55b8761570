"""Chain substrate tests: accounts, blooms, transactions, blocks, genesis."""

from __future__ import annotations

import random

from hypothesis import given, strategies as st

from repro.chain import (
    Account,
    Block,
    BlockBody,
    Bloom,
    GenesisConfig,
    Header,
    Log,
    Receipt,
    Transaction,
    make_genesis,
)
from repro.chain.account import EMPTY_CODE_HASH, EMPTY_STORAGE_ROOT
from repro.chain.transactions import block_bloom, encode_receipts


class TestAccount:
    def test_full_roundtrip(self):
        account = Account(
            nonce=7,
            balance=10**18,
            storage_root=b"\x11" * 32,
            code_hash=b"\x22" * 32,
        )
        assert Account.decode(account.encode()) == account

    def test_default_is_eoa(self):
        account = Account()
        assert not account.is_contract
        assert account.code_hash == EMPTY_CODE_HASH
        assert account.storage_root == EMPTY_STORAGE_ROOT

    def test_slim_roundtrip_empty_fields(self):
        account = Account(nonce=1, balance=5)
        slim = account.encode_slim()
        assert Account.decode_slim(slim) == account
        # Slim form must be smaller than the full form for EOAs.
        assert len(slim) < len(account.encode())

    def test_slim_roundtrip_contract(self):
        account = Account(
            nonce=1, balance=0, storage_root=b"\x01" * 32, code_hash=b"\x02" * 32
        )
        assert Account.decode_slim(account.encode_slim()) == account

    def test_slim_size_matches_paper_scale(self):
        # SnapshotAccount values average ~16 bytes in Table I.
        slim = Account(nonce=3, balance=10**17).encode_slim()
        assert len(slim) < 20

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**200),
    )
    def test_roundtrip_property(self, nonce, balance):
        account = Account(nonce=nonce, balance=balance)
        assert Account.decode(account.encode()) == account
        assert Account.decode_slim(account.encode_slim()) == account


class TestBloom:
    def test_added_element_found(self):
        bloom = Bloom()
        bloom.add(b"hello")
        assert bloom.may_contain(b"hello")

    def test_empty_bloom_contains_nothing(self):
        assert not Bloom().may_contain(b"anything")

    def test_merge_unions(self):
        a, b = Bloom(), Bloom()
        a.add(b"x")
        b.add(b"y")
        a.merge(b)
        assert a.may_contain(b"x") and a.may_contain(b"y")

    def test_serialized_size(self):
        assert len(Bloom().to_bytes()) == 256

    def test_roundtrip(self):
        bloom = Bloom()
        bloom.add(b"addr")
        assert Bloom(bloom.to_bytes()) == bloom

    def test_bit_count_three_per_element(self):
        bloom = Bloom()
        bloom.add(b"only")
        assert 1 <= bloom.bit_count() <= 3

    def test_merge_and_bit_count_match_the_byte_loop(self):
        # merge/bit_count work on the bloom as one 2048-bit integer; the
        # byte-at-a-time loops they replaced are the reference.
        rng = random.Random(15)
        for case in range(200):
            blooms = [Bloom(), Bloom()]
            for bloom in blooms:
                for _ in range(rng.choice((0, 1, 5, 60, 600))):
                    bloom.add(rng.randbytes(rng.randint(1, 32)))
            if case % 50 == 0:
                blooms[1] = Bloom(bytes([0xFF]) * 256)
            a, b = (bloom.to_bytes() for bloom in blooms)
            blooms[0].merge(blooms[1])
            merged = blooms[0].to_bytes()
            assert merged == bytes(x | y for x, y in zip(a, b))
            assert blooms[1].to_bytes() == b  # the argument is left alone
            assert blooms[0].bit_count() == sum(bin(x).count("1") for x in merged)
            assert blooms[0] == Bloom(merged)

    @given(st.lists(st.binary(min_size=1, max_size=32), max_size=20))
    def test_no_false_negatives(self, elements):
        bloom = Bloom()
        for element in elements:
            bloom.add(element)
        for element in elements:
            assert bloom.may_contain(element)


class TestTransactions:
    def _tx(self, **kwargs):
        defaults = dict(
            nonce=1, sender=b"\xaa" * 20, to=b"\xbb" * 20, value=100, gas_limit=21000
        )
        defaults.update(kwargs)
        return Transaction(**defaults)

    def test_hash_is_stable(self):
        assert self._tx().hash == self._tx().hash

    def test_hash_differs_by_nonce(self):
        assert self._tx(nonce=1).hash != self._tx(nonce=2).hash

    def test_creation_flag(self):
        assert self._tx(to=None).is_creation
        assert not self._tx().is_creation

    def test_encoded_size_realistic(self):
        # A simple transfer encodes to roughly mainnet size (~110 bytes).
        size = len(self._tx().encode())
        assert 90 <= size <= 200

    def test_receipt_bloom_covers_logs(self):
        log = Log(address=b"\xcc" * 20, topics=[b"\x01" * 32], data=b"1234")
        receipt = Receipt(status=1, cumulative_gas_used=21000, logs=[log])
        bloom = receipt.bloom()
        assert bloom.may_contain(b"\xcc" * 20)
        assert bloom.may_contain(b"\x01" * 32)

    def test_block_bloom_merges_receipts(self):
        r1 = Receipt(1, 100, [Log(b"\x01" * 20)])
        r2 = Receipt(1, 200, [Log(b"\x02" * 20)])
        bloom = block_bloom([r1, r2])
        assert bloom.may_contain(b"\x01" * 20)
        assert bloom.may_contain(b"\x02" * 20)

    def test_encode_receipts_grows_with_logs(self):
        small = encode_receipts([Receipt(1, 100)])
        big = encode_receipts(
            [Receipt(1, 100, [Log(b"\x01" * 20, [b"\x02" * 32], b"x" * 100)])] * 5
        )
        assert len(big) > len(small)


class TestBlocks:
    def _header(self, number=1):
        return Header(
            number=number,
            parent_hash=b"\x01" * 32,
            state_root=b"\x02" * 32,
            timestamp=1_700_000_000,
        )

    def test_header_hash_stable_and_distinct(self):
        assert self._header().hash == self._header().hash
        assert self._header(1).hash != self._header(2).hash

    def test_header_encoded_size_realistic(self):
        # Mainnet headers are ~550-650 bytes RLP (bloom dominates).
        size = len(self._header().encode())
        assert 300 <= size <= 800

    def test_body_encoding_includes_transactions(self):
        tx = Transaction(1, b"\xaa" * 20, b"\xbb" * 20, 5, 21000)
        body = BlockBody(transactions=[tx, tx])
        assert len(body.encode()) > 2 * len(tx.encode())

    def test_block_accessors(self):
        block = Block(header=self._header(9), body=BlockBody())
        assert block.number == 9
        assert block.hash == block.header.hash
        assert block.transactions == []


class TestGenesis:
    def test_make_genesis(self):
        config = GenesisConfig()
        block = make_genesis(config, state_root=b"\x07" * 32)
        assert block.number == 0
        assert block.header.parent_hash == b"\x00" * 32
        assert block.header.state_root == b"\x07" * 32

    def test_config_json_size_matches_table1(self):
        assert len(GenesisConfig().config_json()) == 603

    def test_genesis_blob_size_matches_table1(self):
        config = GenesisConfig()
        blob = config.genesis_state_blob(b"\x01" * 32)
        assert len(blob) == 710_909

    def test_genesis_blob_deterministic(self):
        config = GenesisConfig()
        assert config.genesis_state_blob(b"\x01" * 32) == config.genesis_state_blob(
            b"\x01" * 32
        )
