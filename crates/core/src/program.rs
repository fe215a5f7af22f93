//! The Federal HPCC Program structure: participating agencies, the four
//! program components, and the stated goals — exhibit T4-1 and the
//! skeleton of T4-2.

/// Agencies funded under the FY92–93 HPCC crosscut (exhibit T4-3's rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Agency {
    /// Defense Advanced Research Projects Agency.
    Darpa,
    /// National Science Foundation.
    Nsf,
    /// Department of Energy.
    Doe,
    /// National Aeronautics and Space Administration.
    Nasa,
    /// Health & Human Services / National Institutes of Health.
    Nih,
    /// Department of Commerce / NOAA.
    Noaa,
    /// Environmental Protection Agency.
    Epa,
    /// Department of Commerce / NIST.
    Nist,
}

impl Agency {
    /// All agencies in the order the funding table lists them
    /// (descending FY92 budget).
    pub const ALL: [Agency; 8] = [
        Agency::Darpa,
        Agency::Nsf,
        Agency::Doe,
        Agency::Nasa,
        Agency::Nih,
        Agency::Noaa,
        Agency::Epa,
        Agency::Nist,
    ];

    /// Label as printed in the exhibit.
    pub fn label(self) -> &'static str {
        match self {
            Agency::Darpa => "DARPA",
            Agency::Nsf => "NSF",
            Agency::Doe => "DOE",
            Agency::Nasa => "NASA",
            Agency::Nih => "HHS/NIH",
            Agency::Noaa => "DOC/NOAA",
            Agency::Epa => "EPA",
            Agency::Nist => "DOC/NIST",
        }
    }
}

/// The four components of the federal program (columns of T4-2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// High Performance Computing Systems.
    Hpcs,
    /// Advanced Software Technology and Algorithms.
    Asta,
    /// National Research and Education Network.
    Nren,
    /// Basic Research and Human Resources.
    Brhr,
}

impl Component {
    pub const ALL: [Component; 4] = [
        Component::Hpcs,
        Component::Asta,
        Component::Nren,
        Component::Brhr,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Component::Hpcs => "HPCS",
            Component::Asta => "ASTA",
            Component::Nren => "NREN",
            Component::Brhr => "BRHR",
        }
    }

    pub fn full_name(self) -> &'static str {
        match self {
            Component::Hpcs => "High Performance Computing Systems",
            Component::Asta => "Advanced Software Technology and Algorithms",
            Component::Nren => "National Research and Education Network",
            Component::Brhr => "Basic Research and Human Resources",
        }
    }
}

/// The program goal and objectives of exhibit T4-1, verbatim.
pub const GOALS: [&str; 3] = [
    "Extend U.S. leadership in high performance computing and computer communications",
    "Disseminate the technologies to speed innovation and to serve national goals",
    "Spur gains in industrial competitiveness by making high performance computing \
     integral to design and production",
];

/// The four "approach" bullets of exhibit T4-3c.
pub const APPROACH: [&str; 4] = [
    "Establish high performance computing testbeds",
    "Constitute application software teams composed of discipline and computational \
     scientists to utilize and evaluate testbeds",
    "Promote technology transfer",
    "Promote collaboration, exchange of ideas and sharing of software among HPCC \
     software developers",
];

/// The statutory basis quoted on the Presidential-commitment exhibit.
pub const AUTHORITY: &str = "High Performance Computing Act of 1991 (P.L. 102-194)";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_agencies_four_components() {
        assert_eq!(Agency::ALL.len(), 8);
        assert_eq!(Component::ALL.len(), 4);
    }

    #[test]
    fn labels_match_exhibit() {
        assert_eq!(Agency::Darpa.label(), "DARPA");
        assert_eq!(Agency::Nih.label(), "HHS/NIH");
        assert_eq!(Agency::Nist.label(), "DOC/NIST");
        assert_eq!(
            Component::Hpcs.full_name(),
            "High Performance Computing Systems"
        );
    }

    #[test]
    fn goals_and_approach_present() {
        assert_eq!(GOALS.len(), 3);
        assert_eq!(APPROACH.len(), 4);
        assert!(AUTHORITY.contains("102-194"));
    }
}
