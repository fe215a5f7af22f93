//! Exhibit T4-2: the agency-responsibilities matrix (agencies × program
//! components → activities).
//!
//! The NTRS scan of this chart is heavily OCR-garbled; the entries below
//! are a cleaned reconstruction of the legible fragments (e.g.
//! "Technology devsfopmenl ... for glgablts ne_,_ks" → "Technology
//! development and coordination for gigabit networks"). The structure —
//! which agency appears in which column — follows the scan.

use crate::program::{Agency, Component};

/// One cell of the matrix: an agency's activities under one component.
pub fn activities(agency: Agency, component: Component) -> &'static [&'static str] {
    use Agency::*;
    use Component::*;
    match (agency, component) {
        (Darpa, Hpcs) => &["Technology development and coordination for teraops systems"],
        (Darpa, Asta) => &[
            "Technology development for parallel algorithms and software tools",
            "Software coordination",
        ],
        (Darpa, Nren) => &[
            "Technology development and coordination for gigabit networks",
            "Gigabits research",
        ],
        (Darpa, Brhr) => &["Basic research and education programs"],

        (Nsf, Hpcs) => &[
            "Basic architecture research",
            "Prototype experimental systems",
            "Research in systems instrumentation and performance measurement",
        ],
        (Nsf, Asta) => &[
            "Research in software tools and databases",
            "Grand Challenges computational research",
            "Computer access",
        ],
        (Nsf, Nren) => &[
            "Gigabits applications research",
            "Facilities coordination and deployment",
            "Gigabits research",
        ],
        (Nsf, Brhr) => &[
            "Basic research and education programs",
            "Research institutes and university block grants",
            "Education / training / curricula",
            "Infrastructure",
        ],

        (Doe, Hpcs) => &["Systems evaluation"],
        (Doe, Asta) => &[
            "Energy grand challenge and computation research",
            "Software tools",
        ],
        (Doe, Nren) => &[
            "Access to energy research facilities and databases",
            "Gigabits research",
        ],
        (Doe, Brhr) => &[
            "University programs",
            "Internships for parallel algorithm development",
        ],

        (Nasa, Hpcs) => &["Aeronautics and space application testbeds"],
        (Nasa, Asta) => &[
            "Computational research in aerosciences",
            "Computational research in earth and space sciences",
            "Software coordination",
        ],
        (Nasa, Nren) => &["Access to aeronautics and spaceflight research centers"],
        (Nasa, Brhr) => &["University programs", "Training and career development"],

        (Nih, Hpcs) => &[],
        (Nih, Asta) => &["Medical application testbeds for NIH/NLM medical computation research"],
        (Nih, Nren) => &["Access for academic medical centers"],
        (Nih, Brhr) => &["University programs", "Basic research"],

        (Noaa, Hpcs) => &[],
        (Noaa, Asta) => &[
            "Ocean and atmospheric computation research",
            "Software tools",
        ],
        (Noaa, Nren) => &[
            "Ocean and atmosphere mission facilities",
            "Access to environmental data bases",
        ],
        (Noaa, Brhr) => &[],

        (Epa, Hpcs) => &[],
        (Epa, Asta) => &[
            "Research in environmental computations, databases, and application testbeds",
            "Computational techniques",
        ],
        (Epa, Nren) => &[
            "Environmental mission networks supported by the states",
            "Development of intelligent gateways",
        ],
        (Epa, Brhr) => &["Technology transfer to states"],

        (Nist, Hpcs) => &["Research in interfaces and standards"],
        (Nist, Asta) => &[
            "Research in software indexing and exchange",
            "Scalable parallel algorithms",
        ],
        (Nist, Nren) => &[
            "Coordinate performance measurement and standards",
            "Programs in protocols and security",
        ],
        (Nist, Brhr) => &[],
    }
}

/// Footnote on the exhibit.
pub const FOOTNOTE: &str = "Department of Education participation expected in FY 1993";

#[cfg(test)]
mod tests {
    use super::*;

    /// Agencies with at least one activity under `component`.
    fn agencies_in(component: Component) -> Vec<Agency> {
        Agency::ALL
            .into_iter()
            .filter(|&a| !activities(a, component).is_empty())
            .collect()
    }

    #[test]
    fn every_agency_has_some_responsibility() {
        for a in Agency::ALL {
            let total: usize = Component::ALL.iter().map(|&c| activities(a, c).len()).sum();
            assert!(total > 0, "{} has no activities", a.label());
        }
    }

    #[test]
    fn every_component_has_multiple_agencies() {
        for c in Component::ALL {
            let n = agencies_in(c).len();
            assert!(n >= 3, "{} has only {n} agencies", c.label());
        }
    }

    #[test]
    fn asta_is_the_broadest_component() {
        // Every agency participates in the applications/software push.
        assert_eq!(agencies_in(Component::Asta).len(), Agency::ALL.len());
    }

    #[test]
    fn hpcs_is_led_by_darpa() {
        let hpcs = agencies_in(Component::Hpcs);
        assert!(hpcs.contains(&Agency::Darpa));
        // Mission agencies without systems programs stay out.
        assert!(!hpcs.contains(&Agency::Noaa));
        assert!(!hpcs.contains(&Agency::Epa));
    }

    #[test]
    fn darpa_owns_teraops_and_gigabits() {
        let t = activities(Agency::Darpa, Component::Hpcs).join(" ");
        assert!(t.contains("teraops"));
        let n = activities(Agency::Darpa, Component::Nren).join(" ");
        assert!(n.contains("gigabit"));
    }

    #[test]
    fn footnote_mentions_education() {
        assert!(FOOTNOTE.contains("Education"));
    }
}
