//! Strongly-typed identifiers for the video hierarchy.
//!
//! Using newtypes (rather than bare `u64`s) makes it impossible to, say,
//! index a clip-score table with a frame id — a class of bug that is easy to
//! introduce in the RVAQ bound-refinement code where frame, shot and clip
//! indices all circulate at once.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub u64);

        impl $name {
            /// Wrap a raw index.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw index.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// The raw index as a `usize` (for slice indexing).
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// The identifier `n` positions later.
            #[inline]
            pub const fn offset(self, n: u64) -> Self {
                Self(self.0 + n)
            }

            /// The next identifier.
            #[inline]
            pub const fn next(self) -> Self {
                Self(self.0 + 1)
            }

            /// The previous identifier, or `None` at zero.
            #[inline]
            pub fn prev(self) -> Option<Self> {
                self.0.checked_sub(1).map(Self)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> u64 {
                id.0
            }
        }
    };
}

id_newtype!(
    /// Index of a frame within a video (0-based).
    FrameId,
    "f"
);
id_newtype!(
    /// Index of a shot within a video (0-based).
    ///
    /// Shots are the occurrence unit for action recognition.
    ShotId,
    "s"
);
id_newtype!(
    /// Index of a clip within a video (0-based). Clips are the unit at which
    /// query predicates are decided and the `cid` key of clip score tables.
    ClipId,
    "c"
);
id_newtype!(
    /// Identifier assigned by the object tracker to one object instance; the
    /// id is stable across the frames in which the instance remains visible.
    TrackId,
    "t"
);
id_newtype!(
    /// Identifier of a video within a repository.
    VideoId,
    "v"
);

/// Deterministic `VideoId` → shard placement: the one of `shards` shards
/// (at least one) that owns `video` in a hash-sliced cluster. The splitmix64
/// finaliser avalanches the raw id so the consecutive ids synthetic
/// workloads use spread across shards instead of marching through them in
/// lockstep.
pub fn shard_index(video: VideoId, shards: usize) -> usize {
    let mut x = video.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_index_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for v in 0..64u64 {
                let s = shard_index(VideoId::new(v), shards);
                assert!(s < shards);
                assert_eq!(s, shard_index(VideoId::new(v), shards), "deterministic");
            }
        }
        assert_eq!(shard_index(VideoId::new(9), 0), 0, "zero shards means one");
    }

    #[test]
    fn shard_index_spreads_consecutive_ids() {
        // 100 consecutive ids over 4 shards: every shard gets a fair share
        // (raw modulo would too, but this pins the avalanche in case the
        // hash changes).
        let shards = 4;
        let mut hit = vec![0usize; shards];
        for v in 100..200u64 {
            hit[shard_index(VideoId::new(v), shards)] += 1;
        }
        assert!(hit.iter().all(|&h| h >= 10), "unbalanced: {hit:?}");
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(FrameId::new(7).to_string(), "f7");
        assert_eq!(ShotId::new(0).to_string(), "s0");
        assert_eq!(ClipId::new(123).to_string(), "c123");
        assert_eq!(TrackId::new(5).to_string(), "t5");
        assert_eq!(VideoId::new(2).to_string(), "v2");
    }

    #[test]
    fn ordering_follows_raw() {
        assert!(ClipId::new(3) < ClipId::new(4));
        assert_eq!(ClipId::new(9).next(), ClipId::new(10));
        assert_eq!(ClipId::new(9).prev(), Some(ClipId::new(8)));
        assert_eq!(ClipId::new(0).prev(), None);
        assert_eq!(ClipId::new(4).offset(6), ClipId::new(10));
    }

    #[test]
    fn conversions_round_trip() {
        let c = ClipId::from(42u64);
        assert_eq!(u64::from(c), 42);
        assert_eq!(c.index(), 42usize);
        assert_eq!(c.raw(), 42);
    }

    #[test]
    fn serde_is_transparent() {
        let c = ClipId::new(17);
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(json, "17");
        let back: ClipId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
