//! The channel model: one lane's directed channels, their reservations
//! and their outages.
//!
//! A message follows the topology's deterministic route (while channels
//! are down, the shortest detour around them) and enters the network the
//! wire latency after it is injected. A wormhole message then waits until
//! every channel on its path is free and holds them all for
//! `per_hop·hops + bytes/bandwidth`; a store-and-forward copy takes each
//! channel in turn and holds it for `per_hop + bytes/bandwidth`. This
//! link-occupancy approximation keeps the two behaviours the paper's
//! claims rest on — pipelined transfers dominated by `bytes/bw`, and
//! head-of-line contention on shared channels — at a cost that sweeps
//! 1000-node machines. On an idle fabric a message takes exactly
//! `NetModel::transfer_time`, which is what a message to another lane
//! is charged ([`crate::shard`]'s modelling concession).

use crate::machine::{MachineConfig, Switching};
use crate::sim::CommError;
use crate::topology::LinkId;
use des::time::{Dur, SimTime};
use hpcc_trace::{names, Recorder, TrackId};
use std::fmt::Write as _;
use std::rc::Rc;

/// Every directed channel's reservation and outage state, as one lane
/// sees it. A lane keeps state for all of the machine's channels, not
/// just the ones whose source node it owns: a detour around a failed
/// channel may leave the lane's node block.
pub(crate) struct Fabric {
    cfg: Rc<MachineConfig>,
    /// When each channel's last reservation ends.
    busy_until: Vec<SimTime>,
    /// Sum over channels of reserved time.
    pub(crate) busy: Dur,
    /// Channels currently out of service. `down_links` counts them so
    /// the fault-free fast path is a single integer compare.
    down: Vec<bool>,
    down_until: Vec<SimTime>,
    down_links: usize,
    /// The trace sink and one track per channel, when recording.
    rec: Option<(Rc<dyn Recorder>, Vec<TrackId>)>,
    /// Reused buffer for the route being reserved.
    route: Vec<LinkId>,
}

impl Fabric {
    pub(crate) fn new(cfg: Rc<MachineConfig>, rec: &Rc<dyn Recorder>) -> Fabric {
        let links = cfg.topology.links();
        let rec = rec.is_enabled().then(|| {
            let tracks = (0..links)
                .map(|l| rec.track(names::MESH_LINKS, &format!("chan {l}")))
                .collect();
            (Rc::clone(rec), tracks)
        });
        Fabric {
            cfg,
            busy_until: vec![SimTime::ZERO; links],
            busy: Dur::ZERO,
            down: vec![false; links],
            down_until: vec![SimTime::ZERO; links],
            down_links: 0,
            rec,
            route: Vec::new(),
        }
    }

    /// Reserve the route from `src` to `dst` (distinct nodes) for `bytes`
    /// injected at `t`, and return the arrival time: `Unreachable` when
    /// every route crosses a failed channel. Records one occupancy span
    /// per channel, named in the caller's reused `label` buffer.
    #[inline]
    pub(crate) fn reserve(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        t: SimTime,
        label: &mut String,
    ) -> Result<SimTime, CommError> {
        let (topo, net, route) = (&self.cfg.topology, &self.cfg.net, &mut self.route);
        if self.down_links == 0 {
            topo.route(src, dst, route);
        } else if !topo.route_avoiding(src, dst, &self.down, route) {
            return Err(CommError::Unreachable { from: src, to: dst });
        }
        if self.rec.is_some() {
            label.clear();
            let _ = write!(label, "{src}->{dst}");
        }
        let entered = t + net.wire_latency;
        let wormhole = net.switching == Switching::Wormhole;
        let (head, hold) = if wormhole {
            let free = route
                .iter()
                .fold(entered, |at, &l| at.max(self.busy_until[l]));
            (free, net.hold(bytes, route.len()))
        } else {
            (entered, net.hold(bytes, 1))
        };
        let mut arrival = head;
        for &l in route.iter() {
            let start = if wormhole {
                head
            } else {
                arrival.max(self.busy_until[l])
            };
            arrival = start + hold;
            self.busy_until[l] = arrival;
            if let Some((rec, tracks)) = &self.rec {
                let (start, end) = (start.nanos(), arrival.nanos());
                rec.span(tracks[l], "link", label, start, end);
            }
        }
        self.busy += hold * route.len() as u64;
        Ok(arrival)
    }

    /// Take `link` out of service until `until`. Overlapping outages keep
    /// the latest repair time; the `link_up` of the earlier one then
    /// comes early and is ignored.
    pub(crate) fn link_down(&mut self, link: LinkId, until: SimTime, now: SimTime) {
        self.instant(link, "down", now);
        self.down_until[link] = self.down_until[link].max(until);
        if !self.down[link] {
            self.down[link] = true;
            self.down_links += 1;
        }
    }

    /// Return `link` to service, unless a later outage still holds it.
    pub(crate) fn link_up(&mut self, link: LinkId, now: SimTime) {
        if self.down[link] && now >= self.down_until[link] {
            self.down[link] = false;
            self.down_links -= 1;
            self.instant(link, "up", now);
        }
    }

    fn instant(&self, link: LinkId, name: &str, now: SimTime) {
        if let Some((rec, tracks)) = &self.rec {
            rec.instant(tracks[link], "fault", name, now.nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::presets;
    use hpcc_trace::NullRecorder;

    /// The model every cross-lane message is timed by is the in-lane one
    /// on an idle fabric: at every distance, in both switching modes, for
    /// an empty, a one-byte and a 1 MiB message.
    #[test]
    fn idle_reservation_takes_exactly_the_transfer_time() {
        let rec: Rc<dyn Recorder> = Rc::new(NullRecorder);
        for base in [
            presets::delta(16, 33),
            presets::ipsc860(7),
            presets::paragon(8, 12),
            presets::ideal(16),
        ] {
            for switching in [Switching::Wormhole, Switching::StoreAndForward] {
                let mut cfg = base.clone();
                cfg.net.switching = switching;
                let cfg = Rc::new(cfg);
                let (topo, net) = (&cfg.topology, &cfg.net);
                let now = SimTime(123_456_789);
                let mut seen = vec![false; topo.diameter() + 1];
                for dst in 1..topo.nodes() {
                    let hops = topo.hops(0, dst);
                    seen[hops] = true;
                    for bytes in [0, 1, 1 << 20] {
                        let mut fabric = Fabric::new(Rc::clone(&cfg), &rec);
                        let t = now + net.send_overhead;
                        let got = fabric.reserve(0, dst, bytes, t, &mut String::new());
                        let want = now + net.send_overhead + net.transfer_time(bytes, hops);
                        assert_eq!(got, Ok(want), "{} {switching:?} 0->{dst}", cfg.name);
                    }
                }
                assert!(seen[1..].iter().all(|&s| s), "{}: every distance", cfg.name);
            }
        }
    }
}
