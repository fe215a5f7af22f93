//! Link technology classes of the 1992 NREN / Delta Consortium era.
//!
//! The bandwidths are the classes named on the paper's "Delta Consortium
//! Partners" figure: NSFnet T1 (1.5 Mb/s), NSFnet T3 (45 Mb/s), ESnet T1,
//! CASA HIPPI/SONET (800 Mb/s), regional T1 and 56 kb/s tails — plus the
//! gigabit class the NREN component is funded to reach.

use des::time::Dur;

/// A physical link technology with its line rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// 56 kb/s DDS tail circuit ("Regional (56 kbps)" on the figure).
    Regional56k,
    /// T1: 1.544 Mb/s (NSFnet T1, ESnet T1, regional T1).
    T1,
    /// T3: 44.736 Mb/s (the NSFnet T3 backbone of 1992).
    T3,
    /// 10 Mb/s Ethernet campus segment.
    Ethernet10,
    /// 100 Mb/s FDDI campus ring.
    Fddi,
    /// HIPPI over SONET at 800 Mb/s (the CASA gigabit testbed).
    HippiSonet800,
    /// Full gigabit — the NREN program goal.
    Gigabit,
    /// 100 Gb/s Ethernet — the modern datacenter-fabric edge tier, the
    /// T3 of the NREN upgrade story replayed thirty years on.
    Gig100,
    /// 400 Gb/s Ethernet — modern fabric spine / DCI tier.
    Gig400,
}

impl LinkClass {
    /// Line rate in bits per second.
    fn bits_per_sec(self) -> f64 {
        match self {
            LinkClass::Regional56k => 56.0e3,
            LinkClass::T1 => 1.544e6,
            LinkClass::T3 => 44.736e6,
            LinkClass::Ethernet10 => 10.0e6,
            LinkClass::Fddi => 100.0e6,
            LinkClass::HippiSonet800 => 800.0e6,
            LinkClass::Gigabit => 1.0e9,
            LinkClass::Gig100 => 100.0e9,
            LinkClass::Gig400 => 400.0e9,
        }
    }

    /// Usable payload rate in bytes per second, after framing overhead.
    pub fn bytes_per_sec(self) -> f64 {
        self.bits_per_sec() * self.efficiency() / 8.0
    }

    /// Fraction of line rate available to payload (framing/protocol tax).
    pub fn efficiency(self) -> f64 {
        match self {
            LinkClass::Regional56k => 0.90,
            LinkClass::T1 => 0.95,
            LinkClass::T3 => 0.95,
            LinkClass::Ethernet10 => 0.85,
            LinkClass::Fddi => 0.90,
            LinkClass::HippiSonet800 => 0.93,
            LinkClass::Gigabit => 0.95,
            LinkClass::Gig100 => 0.97,
            LinkClass::Gig400 => 0.97,
        }
    }

    /// Label used in regenerated exhibits.
    pub fn label(self) -> &'static str {
        match self {
            LinkClass::Regional56k => "Regional (56 kbps)",
            LinkClass::T1 => "T1 (1.5 Mbps)",
            LinkClass::T3 => "T3 (45 Mbps)",
            LinkClass::Ethernet10 => "Ethernet (10 Mbps)",
            LinkClass::Fddi => "FDDI (100 Mbps)",
            LinkClass::HippiSonet800 => "HIPPI/SONET (800 Mbps)",
            LinkClass::Gigabit => "Gigabit",
            LinkClass::Gig100 => "100G Ethernet",
            LinkClass::Gig400 => "400G Ethernet",
        }
    }
}

/// A site (network endpoint) id.
pub type SiteId = usize;

/// A duplex link; each direction has independent capacity.
#[derive(Debug, Clone)]
pub struct Link {
    pub a: SiteId,
    pub b: SiteId,
    pub class: LinkClass,
    /// One-way propagation delay.
    pub latency: Dur,
}

impl Link {
    pub fn capacity(&self) -> f64 {
        self.class.bytes_per_sec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_ordering_matches_era() {
        let mut prev = 0.0;
        for c in [
            LinkClass::Regional56k,
            LinkClass::T1,
            LinkClass::Ethernet10,
            LinkClass::T3,
            LinkClass::Fddi,
            LinkClass::HippiSonet800,
            LinkClass::Gigabit,
            LinkClass::Gig100,
            LinkClass::Gig400,
        ] {
            assert!(c.bits_per_sec() > prev, "{c:?}");
            prev = c.bits_per_sec();
        }
    }

    #[test]
    fn modern_tiers_replay_the_upgrade_ratios() {
        let [gig, g100, g400] = [LinkClass::Gigabit, LinkClass::Gig100, LinkClass::Gig400];
        // Gigabit→100G is a ~100x jump, larger than the T1→T3 29x the
        // paper celebrates; 100G→400G is the incremental follow-on.
        assert!((g100.bits_per_sec() / gig.bits_per_sec() - 100.0).abs() < 1e-6);
        assert!((g400.bits_per_sec() / g100.bits_per_sec() - 4.0).abs() < 1e-6);
        for c in [g100, g400] {
            assert!(c.bytes_per_sec() * 8.0 < c.bits_per_sec());
            assert!(c.bytes_per_sec() * 8.0 > 0.9 * c.bits_per_sec());
        }
    }

    #[test]
    fn t3_to_t1_ratio() {
        // The NSFnet T1->T3 upgrade bought ~29x line rate.
        let r = LinkClass::T3.bits_per_sec() / LinkClass::T1.bits_per_sec();
        assert!((r - 28.97).abs() < 0.1, "ratio {r}");
    }

    #[test]
    fn payload_rate_below_line_rate() {
        // Every class on the consortium figure.
        for c in [
            LinkClass::Regional56k,
            LinkClass::T1,
            LinkClass::T3,
            LinkClass::HippiSonet800,
        ] {
            assert!(c.bytes_per_sec() * 8.0 < c.bits_per_sec());
            assert!(c.bytes_per_sec() * 8.0 > 0.8 * c.bits_per_sec());
        }
    }

    #[test]
    fn hippi_is_the_gigabit_testbed_class() {
        assert_eq!(LinkClass::HippiSonet800.bits_per_sec(), 800.0e6);
        assert!(LinkClass::HippiSonet800.label().contains("HIPPI"));
    }
}
