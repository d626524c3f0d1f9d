"""Mailbox matching semantics: wildcards, ordering, truncation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import run_job
from repro.mpi.errors import JobAborted, TruncationError
from repro.mpi.matching import ANY_SOURCE, ANY_TAG, Mailbox, PostedRecv, signature_matches
from repro.mpi.message import Envelope, MessageSignature


def env(source=0, tag=0, ctx=0, payload=b"x", dest=0):
    return Envelope(source, tag, ctx, payload, len(payload), "MPI_BYTE", dest)


def mailbox():
    return Mailbox(0)


class TestSignatureMatching:
    def test_exact(self):
        assert signature_matches(env(1, 2, 3), 3, 1, 2)

    def test_wrong_context_never_matches(self):
        assert not signature_matches(env(1, 2, 3), 4, ANY_SOURCE, ANY_TAG)

    def test_any_source(self):
        assert signature_matches(env(5, 2, 0), 0, ANY_SOURCE, 2)

    def test_any_tag(self):
        assert signature_matches(env(1, 9, 0), 0, 1, ANY_TAG)

    def test_both_wildcards(self):
        assert signature_matches(env(7, 8, 0), 0, ANY_SOURCE, ANY_TAG)

    def test_source_mismatch(self):
        assert not signature_matches(env(1, 2, 0), 0, 2, 2)


class TestMailbox:
    def test_deliver_then_post(self):
        mb = mailbox()
        mb.deliver(env(1, 5, 0, b"abc"))
        pr = PostedRecv(0, 1, 5, 100)
        mb.post(pr)
        assert pr.matched
        assert pr.envelope.payload == b"abc"

    def test_post_then_deliver(self):
        mb = mailbox()
        pr = PostedRecv(0, ANY_SOURCE, ANY_TAG, 100)
        mb.post(pr)
        assert not pr.matched
        mb.deliver(env(2, 3, 0))
        assert pr.matched

    def test_earliest_posted_recv_wins(self):
        mb = mailbox()
        pr1 = PostedRecv(0, ANY_SOURCE, ANY_TAG, 100)
        pr2 = PostedRecv(0, ANY_SOURCE, ANY_TAG, 100)
        mb.post(pr1)
        mb.post(pr2)
        mb.deliver(env())
        assert pr1.matched and not pr2.matched

    def test_oldest_pending_message_wins(self):
        mb = mailbox()
        mb.deliver(env(0, 1, 0, b"first"))
        mb.deliver(env(0, 1, 0, b"second"))
        pr = PostedRecv(0, 0, 1, 100)
        mb.post(pr)
        assert pr.envelope.payload == b"first"

    def test_tag_selection_skips_nonmatching(self):
        # the app may consume messages out of arrival order by tag —
        # the paper's Section 2.4 observation
        mb = mailbox()
        mb.deliver(env(0, 1, 0, b"tag1"))
        mb.deliver(env(0, 2, 0, b"tag2"))
        pr = PostedRecv(0, 0, 2, 100)
        mb.post(pr)
        assert pr.envelope.payload == b"tag2"
        pr2 = PostedRecv(0, 0, 1, 100)
        mb.post(pr2)
        assert pr2.envelope.payload == b"tag1"

    def test_truncation_raises(self):
        mb = mailbox()
        mb.deliver(env(0, 0, 0, b"0123456789"))
        with pytest.raises(TruncationError):
            mb.post(PostedRecv(0, 0, 0, 4))

    def test_cancel_unmatched(self):
        mb = mailbox()
        pr = PostedRecv(0, 0, 0, 10)
        mb.post(pr)
        assert mb.cancel(pr)
        mb.deliver(env())
        assert not pr.matched
        assert mb.pending_count() == 1

    def test_cancel_matched_fails(self):
        mb = mailbox()
        mb.deliver(env())
        pr = PostedRecv(0, 0, 0, 10)
        mb.post(pr)
        assert not mb.cancel(pr)

    def test_probe_does_not_consume(self):
        mb = mailbox()
        mb.deliver(env(3, 4, 0))
        assert mb.probe_pending(0, 3, 4) is not None
        assert mb.pending_count() == 1

    def test_abort_wakes_wait(self):
        def main(mpi):
            mpi._ctx.engine.abort_event.set()
            with pytest.raises(JobAborted):
                mpi._ctx.mailbox.wait_for(lambda: False)
            return "unwound"

        assert run_job(1, main).returns == ["unwound"]

    def test_abort_after_delivery_still_completes(self):
        # Regression: the predicate must be checked before the abort flag,
        # or an operation whose match already arrived is retroactively
        # reported as JobAborted.
        def main(mpi):
            mb = mpi._ctx.mailbox
            pr = PostedRecv(0, 0, 0, 100)
            mb.post(pr)
            mb.deliver(env(0, 0, 0, b"data"))
            mpi._ctx.engine.abort_event.set()
            mb.wait_for(lambda: pr.matched)  # must NOT raise JobAborted
            return pr.envelope.payload

        assert run_job(1, main).returns == [b"data"]

    def test_delivery_wakes_blocked_waiter_without_timeout(self):
        # The wait has no timeout poll: a delivery must wake it directly.
        def main(mpi):
            mb = mpi._ctx.engine.mailboxes[0]
            if mpi.rank == 0:
                pr = PostedRecv(0, 1, 0, 100)
                mb.post(pr)
                mb.wait_for(lambda: pr.matched)
                return pr.envelope.payload
            mb.deliver(env(1, 0, 0, b"woken"))
            return None

        result = run_job(2, main, wall_timeout=60)
        result.raise_errors()
        assert result.returns == [b"woken", None]
        assert result.wall_seconds < 5.0

    def test_stats(self):
        mb = mailbox()
        mb.deliver(env(payload=b"abcd"))
        mb.deliver(env(payload=b"ef"))
        assert mb.delivered_count == 2
        assert mb.delivered_bytes == 6


class TestWildcardOrdering:
    """Ordering guarantees of the signature-indexed mailbox: wildcard
    receives observe exactly the order a linear arrival-order scan gives."""

    def test_wildcard_recv_takes_oldest_across_signatures(self):
        mb = mailbox()
        mb.deliver(env(2, 9, 0, b"first"))
        mb.deliver(env(1, 3, 0, b"second"))
        pr = PostedRecv(0, ANY_SOURCE, ANY_TAG, 100)
        mb.post(pr)
        assert pr.envelope.payload == b"first"
        pr2 = PostedRecv(0, ANY_SOURCE, ANY_TAG, 100)
        mb.post(pr2)
        assert pr2.envelope.payload == b"second"

    def test_source_wildcard_respects_arrival_order_per_tag(self):
        mb = mailbox()
        mb.deliver(env(3, 7, 0, b"a"))
        mb.deliver(env(1, 7, 0, b"b"))
        mb.deliver(env(3, 8, 0, b"other-tag"))
        pr = PostedRecv(0, ANY_SOURCE, 7, 100)
        mb.post(pr)
        assert pr.envelope.payload == b"a"
        assert pr.envelope.source == 3

    def test_exact_posted_before_wildcard_wins(self):
        mb = mailbox()
        exact = PostedRecv(0, 1, 5, 100)
        wild = PostedRecv(0, ANY_SOURCE, ANY_TAG, 100)
        mb.post(exact)
        mb.post(wild)
        mb.deliver(env(1, 5, 0, b"x"))
        assert exact.matched and not wild.matched

    def test_wildcard_posted_before_exact_wins(self):
        mb = mailbox()
        wild = PostedRecv(0, ANY_SOURCE, ANY_TAG, 100)
        exact = PostedRecv(0, 1, 5, 100)
        mb.post(wild)
        mb.post(exact)
        mb.deliver(env(1, 5, 0, b"x"))
        assert wild.matched and not exact.matched
        mb.deliver(env(1, 5, 0, b"y"))
        assert exact.matched
        assert exact.envelope.payload == b"y"

    def test_probe_wildcard_returns_oldest(self):
        mb = mailbox()
        mb.deliver(env(5, 1, 0, b"old"))
        mb.deliver(env(4, 2, 0, b"new"))
        got = mb.probe_pending(0, ANY_SOURCE, ANY_TAG)
        assert got.payload == b"old"
        assert mb.pending_count() == 2

    def test_has_pending_per_context(self):
        mb = mailbox()
        assert not mb.has_pending(0)
        mb.deliver(env(0, 0, ctx=3))
        assert mb.has_pending(3)
        assert not mb.has_pending(0)
        pr = PostedRecv(3, 0, 0, 100)
        mb.post(pr)
        assert not mb.has_pending(3)

    def test_counts_track_buckets(self):
        mb = mailbox()
        for tag in range(4):
            mb.deliver(env(0, tag, 0))
        assert mb.pending_count() == 4
        assert mb.pending_count(0) == 4
        mb.post(PostedRecv(0, 0, 2, 100))
        assert mb.pending_count() == 3
        prs = [PostedRecv(0, 9, 9, 100), PostedRecv(0, ANY_SOURCE, 1, 100)]
        for pr in prs:
            mb.post(pr)
        assert mb.posted_count() == 1  # the wildcard matched tag 1 instantly
        assert mb.cancel(prs[0])
        assert mb.posted_count() == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                min_size=1, max_size=12))
def test_per_signature_fifo(messages):
    """Property: messages with equal (source, tag) are received in send
    order, no matter how other signatures interleave (MPI non-overtaking)."""
    mb = mailbox()
    seq = {}
    for source, tag in messages:
        k = (source, tag)
        seq[k] = seq.get(k, 0) + 1
        mb.deliver(env(source, tag, 0, payload=str(seq[k]).encode()))
    got = {}
    for source, tag in messages:
        pr = PostedRecv(0, source, tag, 100)
        mb.post(pr)
        assert pr.matched
        k = (source, tag)
        got[k] = got.get(k, 0) + 1
        assert pr.envelope.payload == str(got[k]).encode()
