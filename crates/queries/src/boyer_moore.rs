//! Boyer–Moore–Horspool substring search.
//!
//! The `pattern-search` and `p2p-detector` queries of the paper use the
//! Boyer–Moore algorithm to locate byte sequences in packet payloads
//! (Section 2.2, reference [23]); their cost is linear in the number of
//! bytes scanned. The Horspool simplification keeps the same average-case
//! behaviour with a single skip table, which is what matters for the cost
//! model.

/// A compiled search pattern.
#[derive(Debug, Clone)]
pub struct BoyerMoore {
    pattern: Vec<u8>,
    skip: [usize; 256],
}

impl BoyerMoore {
    /// Compiles a pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is empty.
    pub fn new(pattern: &[u8]) -> Self {
        assert!(!pattern.is_empty(), "pattern must not be empty");
        let mut skip = [pattern.len(); 256];
        for (i, &byte) in pattern.iter().enumerate().take(pattern.len() - 1) {
            skip[usize::from(byte)] = pattern.len() - 1 - i;
        }
        Self { pattern: pattern.to_vec(), skip }
    }

    /// Searches for the pattern in `haystack`.
    ///
    /// Returns the offset of the first occurrence (if any) together with the
    /// number of byte positions examined, which the queries charge to their
    /// cycle meter.
    pub fn find(&self, haystack: &[u8]) -> (Option<usize>, u64) {
        if haystack.len() < self.pattern.len() {
            return (None, haystack.len() as u64);
        }
        self.resume(haystack, 0, 0)
    }

    /// `[self.find(haystack), other.find(haystack)]`, with the two searches'
    /// alignment chains advanced side by side while neither sits on its
    /// pattern's last byte (such a step is two dependent loads), after which
    /// each finishes alone through `find`'s body.
    pub fn find_pair(&self, other: &BoyerMoore, haystack: &[u8]) -> [(Option<usize>, u64); 2] {
        let n = haystack.len();
        let (m, other_m) = (self.pattern.len(), other.pattern.len());
        if n < m || n < other_m {
            return [self.find(haystack), other.find(haystack)];
        }
        let (last, other_last) = (self.pattern[m - 1], other.pattern[other_m - 1]);
        let (mut pos, mut other_pos, mut steps) = (0, 0, 0);
        while pos <= n - m && other_pos <= n - other_m {
            let (byte, other_byte) = (haystack[pos + m - 1], haystack[other_pos + other_m - 1]);
            if byte == last || other_byte == other_last {
                break;
            }
            pos += self.skip[usize::from(byte)];
            other_pos += other.skip[usize::from(other_byte)];
            steps += 1;
        }
        [self.resume(haystack, pos, steps), other.resume(haystack, other_pos, steps)]
    }

    /// `find`'s body from alignment `pos` with `examined` positions examined;
    /// `haystack` is at least as long as the pattern.
    fn resume(&self, haystack: &[u8], mut pos: usize, mut examined: u64) -> (Option<usize>, u64) {
        let m = self.pattern.len();
        let n = haystack.len();
        while pos <= n - m {
            let mut j = m;
            while j > 0 && haystack[pos + j - 1] == self.pattern[j - 1] {
                j -= 1;
                examined += 1;
            }
            if j == 0 {
                return (Some(pos), examined.max(1));
            }
            examined += 1;
            let skip = self.skip[usize::from(haystack[pos + m - 1])];
            pos += skip;
        }
        (None, examined.max(1))
    }

    /// Returns `true` if the pattern occurs in `haystack`.
    pub fn matches(&self, haystack: &[u8]) -> bool {
        self.find(haystack).0.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_pattern_at_various_positions() {
        let bm = BoyerMoore::new(b"needle");
        assert_eq!(bm.find(b"needle in a haystack").0, Some(0));
        assert_eq!(bm.find(b"a needle in a haystack").0, Some(2));
        assert_eq!(bm.find(b"haystack with a needle").0, Some(16));
        assert_eq!(bm.find(b"no match here").0, None);
    }

    #[test]
    fn short_haystack_cannot_match() {
        let bm = BoyerMoore::new(b"longpattern");
        assert_eq!(bm.find(b"short").0, None);
    }

    #[test]
    fn examined_bytes_grow_with_haystack() {
        let bm = BoyerMoore::new(b"zzz");
        let small = bm.find(&[b'a'; 100]).1;
        let large = bm.find(&[b'a'; 10_000]).1;
        assert!(large > small * 50, "examined should scale with input: {small} vs {large}");
    }

    #[test]
    fn skip_table_makes_search_sublinear_for_distinct_alphabet() {
        let bm = BoyerMoore::new(b"xyz");
        // A haystack with no bytes from the pattern can skip by the full
        // pattern length each step.
        let (_, examined) = bm.find(&vec![b'a'; 3000]);
        assert!(examined < 1200, "examined {examined} should be about a third of the bytes");
    }

    #[test]
    fn crafted_near_miss_payloads_blow_up_the_skip_table() {
        // The adversarial `bm-mimicry` scenario tiles payloads with the
        // search pattern minus its first byte: every alignment then walks
        // almost the whole pattern backwards before mismatching, and the
        // bad-character skip (keyed on a byte *inside* the pattern) only
        // advances by one. Cost per byte is an order of magnitude above
        // benign text of the same length — the lever the predictor-gaming
        // attack pulls.
        let bm = BoyerMoore::new(b"GET / HTTP/1.1");
        let block = b"ZET / HTTP/1.1";
        let crafted: Vec<u8> = block.iter().copied().cycle().take(block.len() * 43).collect();
        let benign = vec![b'a'; crafted.len()];
        let (hit, crafted_examined) = bm.find(&crafted);
        assert!(hit.is_none(), "the crafted payload must never actually match");
        let (_, benign_examined) = bm.find(&benign);
        assert!(
            crafted_examined > benign_examined * 10,
            "crafted {crafted_examined} examined vs benign {benign_examined}"
        );
        assert!(
            crafted_examined as usize > crafted.len(),
            "the attack examines more positions than there are payload bytes"
        );
    }

    #[test]
    #[should_panic(expected = "pattern must not be empty")]
    fn empty_pattern_is_rejected() {
        let _ = BoyerMoore::new(b"");
    }

    #[test]
    fn matches_is_consistent_with_find() {
        let bm = BoyerMoore::new(b"GNUTELLA");
        assert!(bm.matches(b"....GNUTELLA CONNECT...."));
        assert!(!bm.matches(b"....bittorrent...."));
    }
}
