//! Frame formats and airtime.

use pbbf_des::SimDuration;
use pbbf_topology::NodeId;
use serde::{Deserialize, Serialize};

/// Physical-layer constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phy {
    /// Radio bit rate in bits per second (19 200 for Mica2, Section 5).
    pub bitrate_bps: u32,
    /// Bytes of a broadcast ATIM frame (header-only management frame).
    pub atim_bytes: u32,
    /// Bytes of a beacon frame.
    pub beacon_bytes: u32,
    /// Total bytes of a data packet (Table 2: 64, of which 30 payload).
    pub data_bytes: u32,
}

impl Phy {
    /// The paper's configuration: 19.2 kbps, 64-byte data packets, small
    /// management frames.
    #[must_use]
    pub fn mica2() -> Self {
        Self {
            bitrate_bps: 19_200,
            atim_bytes: 20,
            beacon_bytes: 16,
            data_bytes: 64,
        }
    }

    /// Airtime of `bytes` at the configured bit rate.
    ///
    /// # Panics
    ///
    /// Panics if the bit rate is zero.
    #[must_use]
    pub fn airtime(&self, bytes: u32) -> SimDuration {
        assert!(self.bitrate_bps > 0, "zero bit rate");
        let secs = f64::from(bytes) * 8.0 / f64::from(self.bitrate_bps);
        SimDuration::from_secs(secs)
    }
}

impl Default for Phy {
    fn default() -> Self {
        Self::mica2()
    }
}

/// What a frame is, with its protocol-level content.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameKind {
    /// A synchronization beacon (modelled for byte overhead only; the
    /// simulators assume perfect synchronization as the paper does).
    Beacon,
    /// A broadcast ATIM announcing pending broadcast data for this beacon
    /// interval.
    Atim {
        /// The update ids the sender will transmit after the window.
        announced: Vec<u64>,
    },
    /// A broadcast data packet carrying the `k` most recent updates known
    /// to the sender (Table 2: `k = 1`).
    Data {
        /// The update ids carried.
        updates: Vec<u64>,
        /// Whether this was a PBBF immediate (unannounced) transmission —
        /// carried for statistics only, not protocol behavior.
        immediate: bool,
    },
}

/// One over-the-air frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    /// Transmitting node.
    pub src: NodeId,
    /// Content.
    pub kind: FrameKind,
}

impl Frame {
    /// Creates a data frame.
    #[must_use]
    pub fn data(src: NodeId, updates: Vec<u64>, immediate: bool) -> Self {
        Self {
            src,
            kind: FrameKind::Data { updates, immediate },
        }
    }

    /// Creates a broadcast ATIM.
    #[must_use]
    pub fn atim(src: NodeId, announced: Vec<u64>) -> Self {
        Self {
            src,
            kind: FrameKind::Atim { announced },
        }
    }

    /// Creates a beacon.
    #[must_use]
    pub fn beacon(src: NodeId) -> Self {
        Self {
            src,
            kind: FrameKind::Beacon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_airtime() {
        let phy = Phy::mica2();
        // 64 bytes at 19.2 kbps = 26.666... ms.
        let t = phy.airtime(64).as_secs();
        assert!((t - 0.026_666_666).abs() < 1e-6);
    }

    #[test]
    fn constructors_fill_kind() {
        let d = Frame::data(NodeId(3), vec![9], true);
        assert_eq!(d.src, NodeId(3));
        assert!(
            matches!(d.kind, FrameKind::Data { ref updates, immediate: true } if updates == &[9])
        );
        let a = Frame::atim(NodeId(1), vec![2, 3]);
        assert!(matches!(a.kind, FrameKind::Atim { ref announced } if announced.len() == 2));
        assert!(matches!(Frame::beacon(NodeId(0)).kind, FrameKind::Beacon));
    }

    #[test]
    fn airtime_zero_bytes_is_zero() {
        let phy = Phy::mica2();
        assert!(phy.airtime(0).is_zero());
    }
}
