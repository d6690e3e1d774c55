//! SWAR (SIMD-within-a-register) byte scanning for the hot parse path.
//!
//! The tokenizer's inner loops spend their time looking for the next
//! interesting byte: `<` or `&` inside character data, the closing quote
//! (or an illegal `<`) inside attribute values, `>` while skipping tags.
//! These helpers scan eight bytes per step with the classic
//! "haszero" bit trick instead of one `char` at a time, which is the
//! memchr idiom without taking a dependency.
//!
//! All needles used by the parser are ASCII, so a match position always
//! lands on a UTF-8 character boundary and the bulk-copied prefix is
//! guaranteed valid UTF-8 when the haystack was.

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Returns a mask with bit 7 set in every byte of `x` that is zero.
///
/// The classic trick: `x - LO` borrows into byte lanes that were zero,
/// `& !x` clears lanes that had their high bit set on their own, `& HI`
/// keeps only the marker bits. No false positives, no false negatives
/// for the "is any byte zero" question when read lane-by-lane from the
/// low end (the first set marker bit is always in the first zero byte).
#[inline(always)]
fn zero_mask(x: u64) -> u64 {
    x.wrapping_sub(LO) & !x & HI
}

/// Broadcasts a byte to all eight lanes.
#[inline(always)]
fn splat(b: u8) -> u64 {
    LO * b as u64
}

/// Index of the first matching lane given a non-zero marker mask
/// (little-endian: the lowest set bit belongs to the earliest byte).
#[inline(always)]
fn first_lane(mask: u64) -> usize {
    (mask.trailing_zeros() >> 3) as usize
}

/// Finds the first occurrence of `n` in `haystack`.
#[inline]
pub fn find_byte(haystack: &[u8], n: u8) -> Option<usize> {
    let pat = splat(n);
    let mut i = 0;
    while i + 8 <= haystack.len() {
        let word = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8-byte chunk"));
        let hit = zero_mask(word ^ pat);
        if hit != 0 {
            return Some(i + first_lane(hit));
        }
        i += 8;
    }
    haystack[i..].iter().position(|&b| b == n).map(|p| i + p)
}

/// Finds the first occurrence of either `n1` or `n2`.
#[inline]
pub fn find_byte2(haystack: &[u8], n1: u8, n2: u8) -> Option<usize> {
    let (p1, p2) = (splat(n1), splat(n2));
    let mut i = 0;
    while i + 8 <= haystack.len() {
        let word = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8-byte chunk"));
        let hit = zero_mask(word ^ p1) | zero_mask(word ^ p2);
        if hit != 0 {
            return Some(i + first_lane(hit));
        }
        i += 8;
    }
    haystack[i..]
        .iter()
        .position(|&b| b == n1 || b == n2)
        .map(|p| i + p)
}

/// Finds the first occurrence of `n1`, `n2`, or `n3`.
#[inline]
pub fn find_byte3(haystack: &[u8], n1: u8, n2: u8, n3: u8) -> Option<usize> {
    let (p1, p2, p3) = (splat(n1), splat(n2), splat(n3));
    let mut i = 0;
    while i + 8 <= haystack.len() {
        let word = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8-byte chunk"));
        let hit = zero_mask(word ^ p1) | zero_mask(word ^ p2) | zero_mask(word ^ p3);
        if hit != 0 {
            return Some(i + first_lane(hit));
        }
        i += 8;
    }
    haystack[i..]
        .iter()
        .position(|&b| b == n1 || b == n2 || b == n3)
        .map(|p| i + p)
}

/// Finds the first byte that is any of `needles` (the attribute-value
/// escaper's seven specials).
#[inline]
pub fn find_any<const N: usize>(haystack: &[u8], needles: [u8; N]) -> Option<usize> {
    let pats = needles.map(splat);
    let mut i = 0;
    while i + 8 <= haystack.len() {
        let word = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8-byte chunk"));
        let hit = pats.iter().fold(0, |hit, &p| hit | zero_mask(word ^ p));
        if hit != 0 {
            return Some(i + first_lane(hit));
        }
        i += 8;
    }
    haystack[i..]
        .iter()
        .position(|b| needles.contains(b))
        .map(|p| i + p)
}

/// Finds the first occurrence of the substring `needle` (used for the
/// `]]>` / `-->` / `?>` terminators and `\r\n\r\n` head scanning).
/// Scans for the first needle byte with SWAR, then verifies the rest.
#[inline]
pub fn find_seq(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    let (&first, rest) = needle.split_first()?;
    let mut from = 0;
    while from < haystack.len() {
        let at = from + find_byte(&haystack[from..], first)?;
        match haystack.get(at + 1..at + 1 + rest.len()) {
            Some(tail) if tail == rest => return Some(at),
            Some(_) => from = at + 1,
            None => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(h: &[u8], set: &[u8]) -> Option<usize> {
        h.iter().position(|b| set.contains(b))
    }

    #[test]
    fn finds_in_every_lane_position() {
        for len in 0..40 {
            for at in 0..len {
                let mut h = vec![b'a'; len];
                h[at] = b'<';
                assert_eq!(find_byte(&h, b'<'), Some(at), "len={len} at={at}");
            }
        }
    }

    #[test]
    fn misses_are_none() {
        let h = vec![b'x'; 37];
        assert_eq!(find_byte(&h, b'<'), None);
        assert_eq!(find_byte2(&h, b'<', b'&'), None);
        assert_eq!(find_byte3(&h, b'<', b'&', b'"'), None);
        assert_eq!(find_byte(b"", b'<'), None);
    }

    #[test]
    fn earliest_of_multiple_needles_wins() {
        let h = b"aaaa&aa<aaaaaaaaaa\"a";
        assert_eq!(find_byte2(h, b'<', b'&'), Some(4));
        assert_eq!(find_byte3(h, b'<', b'&', b'"'), Some(4));
        assert_eq!(find_byte3(h, b'<', b'"', b'z'), Some(7));
        assert_eq!(find_byte(h, b'"'), Some(18));
    }

    #[test]
    fn high_bit_bytes_do_not_false_positive() {
        // 0x80/0xFF lanes exercise the `& !x` correction.
        let h = [0x80, 0xFF, 0x81, 0xFE, 0x80, 0xFF, 0x80, 0xFF, b'<'];
        assert_eq!(find_byte(&h, b'<'), Some(8));
        assert_eq!(find_byte2(&h, b'<', b'&'), Some(8));
        // And the needles themselves still match in high-bit company.
        let h2 = [0xC3, 0xA9, b'&', 0xC3, 0xA9, 0xC3, 0xA9, 0xC3, 0xA9];
        assert_eq!(find_byte2(&h2, b'<', b'&'), Some(2));
    }

    #[test]
    fn agrees_with_naive_on_mixed_input() {
        let h: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        for set in [&[b'<'][..], &[b'<', b'&'][..], &[b'<', b'&', b'"'][..]] {
            let got = match set.len() {
                1 => find_byte(&h, set[0]),
                2 => find_byte2(&h, set[0], set[1]),
                _ => find_byte3(&h, set[0], set[1], set[2]),
            };
            assert_eq!(got, naive(&h, set));
        }
        let seven = [b'&', b'<', b'>', b'"', b'\t', b'\n', b'\r'];
        for start in 0..64 {
            assert_eq!(find_any(&h[start..], seven), naive(&h[start..], &seven));
        }
    }

    #[test]
    fn find_seq_matches_str_find() {
        let h = b"aa]]aa]]>bb]]>";
        assert_eq!(find_seq(h, b"]]>"), Some(6));
        assert_eq!(find_seq(h, b"-->"), None);
        assert_eq!(find_seq(b"--->", b"-->"), Some(1));
        assert_eq!(find_seq(b"]]", b"]]>"), None);
        assert_eq!(find_seq(b"", b"]]>"), None);
        assert_eq!(find_seq(b"\r\nx\r\n\r\n", b"\r\n\r\n"), Some(3));
    }
}
