//! NIC line-rate model.
//!
//! The one piece of the OVS testbed a dev box cannot provide: the
//! 40 GbE ConnectX-3 the paper's generator saturates. The Figure 15a
//! model — measured per-thread capacity × threads — is capped at the
//! line rate for the configured packet size
//! ([`NicModel::cap_mpps`]), which is what produces the figure's
//! plateau at two or more threads.

/// A fixed-line-rate NIC.
#[derive(Debug, Clone, Copy)]
pub struct NicModel {
    /// Line rate in gigabits per second.
    pub gbps: f64,
    /// Wire size of one packet in bytes (payload the generator sends;
    /// the paper's pktgen TCP stream is ~330B on the wire for the
    /// ~13-14 Mpps plateau shown in Figure 15a).
    pub packet_bytes: usize,
}

impl NicModel {
    /// The evaluated 40 GbE card with the Figure 15a packet size.
    pub fn forty_gbe() -> Self {
        Self {
            gbps: 40.0,
            packet_bytes: 330,
        }
    }

    /// Maximum packets per second the wire can carry. Ethernet adds 20
    /// bytes of preamble + IFG and 4 bytes of FCS per frame.
    pub fn line_rate_pps(&self) -> f64 {
        let wire_bits = ((self.packet_bytes + 24) * 8) as f64;
        self.gbps * 1e9 / wire_bits
    }

    /// Line rate in Mpps.
    pub fn line_rate_mpps(&self) -> f64 {
        self.line_rate_pps() / 1e6
    }

    /// Cap an offered rate (Mpps) at the line rate.
    pub fn cap_mpps(&self, offered: f64) -> f64 {
        offered.min(self.line_rate_mpps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forty_gbe_plateau_matches_figure15a() {
        // Figure 15a plateaus around 13-14 Mpps.
        let nic = NicModel::forty_gbe();
        let mpps = nic.line_rate_mpps();
        assert!((13.0..15.0).contains(&mpps), "line rate {mpps} Mpps");
    }

    #[test]
    fn cap_passes_low_rates() {
        let nic = NicModel::forty_gbe();
        assert_eq!(nic.cap_mpps(5.0), 5.0);
        assert!(nic.cap_mpps(100.0) < 15.0);
    }

    #[test]
    fn model_caps_at_nic() {
        // The Figure 15a model: per-thread capacity x threads, capped.
        let nic = NicModel::forty_gbe();
        assert_eq!(nic.cap_mpps(5.0 * 1.0), 5.0);
        assert_eq!(nic.cap_mpps(5.0 * 2.0), 10.0);
        let capped = nic.cap_mpps(8.0 * 4.0);
        assert!(capped < 15.0, "32 offered, capped at line rate: {capped}");
    }

    #[test]
    fn smaller_packets_mean_more_pps() {
        let big = NicModel {
            gbps: 40.0,
            packet_bytes: 1500,
        };
        let small = NicModel {
            gbps: 40.0,
            packet_bytes: 64,
        };
        assert!(small.line_rate_pps() > big.line_rate_pps());
    }
}
