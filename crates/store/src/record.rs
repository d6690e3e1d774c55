//! WAL record framing and the mailbox operation payloads.
//!
//! On-"disk" framing (all integers little-endian):
//!
//! ```text
//! record  := [len: u32][crc: u32][payload: len bytes]
//! payload := [op: u8][op-specific fields]
//! ```
//!
//! `crc` is the CRC-32 of the payload bytes. A record whose header is
//! incomplete, whose `len` overruns the segment, or whose CRC mismatches
//! is — at the log tail — a torn write from a crash mid-append, and
//! recovery truncates the segment there. Strings are `[u32 len][bytes]`;
//! the deposit body is always the *last* field so spill reads can fetch
//! it straight from the segment by offset without re-decoding.

use crate::crc::crc32;

/// Framing header size: `len` + `crc`.
pub const HEADER_BYTES: u64 = 8;

/// One decoded mailbox operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A mailbox came into existence.
    Create {
        /// Mailbox id.
        id: String,
        /// Fetch/destroy access key.
        key: String,
        /// Quota accounting bucket.
        tenant: String,
        /// Creation time (µs, caller clock).
        created_at: u64,
    },
    /// A message was appended to a mailbox. The body is the final field
    /// of the payload; [`Op::deposit_body_offset`] locates it for spill
    /// reads.
    Deposit {
        /// Destination mailbox id.
        box_id: String,
        /// Deposit time (µs).
        received_at: u64,
        /// Drop-dead time (µs).
        expires_at: u64,
        /// Serialized envelope.
        body: String,
    },
    /// Every message of `box_id` with LSN ≤ `upto_lsn` has been picked
    /// up (fetch is FIFO, so a prefix ack captures exactly the drained
    /// messages). Idempotent on replay.
    Ack {
        /// Acked mailbox id.
        box_id: String,
        /// Highest acked deposit LSN.
        upto_lsn: u64,
    },
    /// The mailbox and everything in it is gone.
    Destroy {
        /// Destroyed mailbox id.
        box_id: String,
    },
    /// Segment-head snapshot of all live mailbox *metadata* (never
    /// message bodies): `(id, key, tenant, created_at)` per box. Written
    /// as the first record of every segment after the first, so any
    /// older segment whose deposits are all acked can be deleted without
    /// losing box existence.
    Checkpoint {
        /// Live mailboxes at rotation time.
        boxes: Vec<(String, String, String, u64)>,
    },
}

const OP_CREATE: u8 = 1;
const OP_DEPOSIT: u8 = 2;
const OP_ACK: u8 = 3;
const OP_DESTROY: u8 = 4;
const OP_CHECKPOINT: u8 = 5;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Reader<'a> {
    fn u64(&mut self) -> Option<u64> {
        let end = self.i.checked_add(8)?;
        let v = u64::from_le_bytes(self.b.get(self.i..end)?.try_into().ok()?);
        self.i = end;
        Some(v)
    }

    fn str(&mut self) -> Option<String> {
        let end = self.i.checked_add(4)?;
        let n = u32::from_le_bytes(self.b.get(self.i..end)?.try_into().ok()?) as usize;
        self.i = end;
        let end = self.i.checked_add(n)?;
        let s = std::str::from_utf8(self.b.get(self.i..end)?).ok()?.to_string();
        self.i = end;
        Some(s)
    }
}

impl Op {
    /// Serializes the payload (everything after the framing header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_payload_into(&mut out);
        out
    }

    /// Appends the whole framed record (header + payload) to `out`,
    /// after whatever it already holds: the payload is written once,
    /// straight after a header patched in when its length and CRC are
    /// known, so a deposit body is copied exactly once on its way to
    /// the log and a run of records is one buffer, one write.
    /// Byte-identical to appending `frame(&self.encode_payload())`.
    pub fn append_record_to(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + HEADER_BYTES as usize, 0);
        self.encode_payload_into(out);
        let (header, payload) = out[start..].split_at_mut(HEADER_BYTES as usize);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    }

    fn encode_payload_into(&self, out: &mut Vec<u8>) {
        match self {
            Op::Create { id, key, tenant, created_at } => {
                out.push(OP_CREATE);
                put_str(out, id);
                put_str(out, key);
                put_str(out, tenant);
                put_u64(out, *created_at);
            }
            Op::Deposit { box_id, received_at, expires_at, body } => {
                out.push(OP_DEPOSIT);
                put_str(out, box_id);
                put_u64(out, *received_at);
                put_u64(out, *expires_at);
                put_str(out, body);
            }
            Op::Ack { box_id, upto_lsn } => {
                out.push(OP_ACK);
                put_str(out, box_id);
                put_u64(out, *upto_lsn);
            }
            Op::Destroy { box_id } => {
                out.push(OP_DESTROY);
                put_str(out, box_id);
            }
            Op::Checkpoint { boxes } => {
                out.push(OP_CHECKPOINT);
                put_u64(out, boxes.len() as u64);
                for (id, key, tenant, created_at) in boxes {
                    put_str(out, id);
                    put_str(out, key);
                    put_str(out, tenant);
                    put_u64(out, *created_at);
                }
            }
        }
    }

    /// Decodes a payload. `None` on any malformation (recovery treats
    /// that as corruption).
    pub fn decode_payload(payload: &[u8]) -> Option<Op> {
        let (&op, rest) = payload.split_first()?;
        let mut r = Reader { b: rest, i: 0 };
        let decoded = match op {
            OP_CREATE => Op::Create {
                id: r.str()?,
                key: r.str()?,
                tenant: r.str()?,
                created_at: r.u64()?,
            },
            OP_DEPOSIT => Op::Deposit {
                box_id: r.str()?,
                received_at: r.u64()?,
                expires_at: r.u64()?,
                body: r.str()?,
            },
            OP_ACK => Op::Ack {
                box_id: r.str()?,
                upto_lsn: r.u64()?,
            },
            OP_DESTROY => Op::Destroy { box_id: r.str()? },
            OP_CHECKPOINT => {
                let n = r.u64()? as usize;
                // Cap pathological counts before allocating.
                if n > rest.len() {
                    return None;
                }
                let mut boxes = Vec::with_capacity(n);
                for _ in 0..n {
                    boxes.push((r.str()?, r.str()?, r.str()?, r.u64()?));
                }
                Op::Checkpoint { boxes }
            }
            _ => return None,
        };
        if r.i != rest.len() {
            return None; // trailing garbage
        }
        Some(decoded)
    }

    /// Offset of a deposit body *within the payload* — the body is the
    /// last field, prefixed by its u32 length.
    pub fn deposit_body_offset(box_id: &str) -> u64 {
        // op byte + (len + box_id) + received_at + expires_at + body len prefix
        1 + 4 + box_id.len() as u64 + 8 + 8 + 4
    }
}

/// Frames a payload into a full record (header + payload).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + HEADER_BYTES as usize);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Outcome of reading one record at an offset.
pub enum ReadRecord {
    /// A complete, checksum-valid record: the payload and the offset
    /// just past it.
    Ok {
        /// Decoded-payload bytes.
        payload: Vec<u8>,
        /// Offset of the next record.
        next: u64,
    },
    /// Clean end of segment (offset == segment length).
    End,
    /// Incomplete header/payload or CRC mismatch starting at this
    /// offset: a torn tail.
    Torn,
}

/// Reads the record starting at `off` in `seg`.
pub fn read_record(seg: &[u8], off: u64) -> ReadRecord {
    let off = off as usize;
    if off == seg.len() {
        return ReadRecord::End;
    }
    if off + HEADER_BYTES as usize > seg.len() {
        return ReadRecord::Torn;
    }
    let len = u32::from_le_bytes(seg[off..off + 4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(seg[off + 4..off + 8].try_into().unwrap());
    let start = off + HEADER_BYTES as usize;
    let Some(end) = start.checked_add(len) else {
        return ReadRecord::Torn;
    };
    if end > seg.len() {
        return ReadRecord::Torn;
    }
    let payload = &seg[start..end];
    if crc32(payload) != crc {
        return ReadRecord::Torn;
    }
    ReadRecord::Ok {
        payload: payload.to_vec(),
        next: end as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(op: Op) {
        let payload = op.encode_payload();
        // The single-buffer encoder the WAL appends with writes the
        // same bytes as framing a separately built payload, after the
        // records the buffer already holds.
        let mut run = b"the run's earlier records".to_vec();
        op.append_record_to(&mut run);
        assert_eq!(run, [b"the run's earlier records".as_slice(), &frame(&payload)].concat());
        assert_eq!(Op::decode_payload(&payload), Some(op));
    }

    #[test]
    fn all_ops_round_trip() {
        round_trip(Op::Create {
            id: "mbox-1".into(),
            key: "key-1".into(),
            tenant: "acme".into(),
            created_at: 42,
        });
        round_trip(Op::Deposit {
            box_id: "mbox-1".into(),
            received_at: 10,
            expires_at: 99,
            body: "<env>payload</env>".into(),
        });
        round_trip(Op::Ack { box_id: "mbox-1".into(), upto_lsn: 7 });
        round_trip(Op::Destroy { box_id: "mbox-1".into() });
        round_trip(Op::Checkpoint {
            boxes: vec![
                ("a".into(), "ka".into(), "t1".into(), 1),
                ("b".into(), "kb".into(), "t2".into(), 2),
            ],
        });
    }

    #[test]
    fn deposit_body_offset_locates_the_body() {
        let op = Op::Deposit {
            box_id: "mbox-xyz".into(),
            received_at: 5,
            expires_at: 6,
            body: "THE-BODY".into(),
        };
        let payload = op.encode_payload();
        let off = Op::deposit_body_offset("mbox-xyz") as usize;
        assert_eq!(&payload[off..off + 8], b"THE-BODY");
        assert_eq!(payload.len(), off + 8);
    }

    #[test]
    fn framed_record_reads_back() {
        let payload = Op::Destroy { box_id: "m".into() }.encode_payload();
        let rec = frame(&payload);
        match read_record(&rec, 0) {
            ReadRecord::Ok { payload: p, next } => {
                assert_eq!(p, payload);
                assert_eq!(next, rec.len() as u64);
            }
            _ => panic!("expected Ok"),
        }
        match read_record(&rec, rec.len() as u64) {
            ReadRecord::End => {}
            _ => panic!("expected End"),
        }
    }

    #[test]
    fn truncated_and_corrupted_records_are_torn() {
        let payload = Op::Destroy { box_id: "mbox".into() }.encode_payload();
        let rec = frame(&payload);
        // Any strict prefix is torn.
        for cut in 1..rec.len() {
            match read_record(&rec[..cut], 0) {
                ReadRecord::Torn => {}
                _ => panic!("prefix of {cut} bytes must be torn"),
            }
        }
        // A flipped payload bit fails the CRC.
        let mut bad = rec.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        match read_record(&bad, 0) {
            ReadRecord::Torn => {}
            _ => panic!("corrupt record must be torn"),
        }
        // Malformed decode is rejected.
        assert_eq!(Op::decode_payload(&[99, 0, 0]), None);
        assert_eq!(Op::decode_payload(&[]), None);
    }
}
