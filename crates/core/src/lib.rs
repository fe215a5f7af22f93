//! `hpcc-core` — the subject of the paper itself: the Federal High
//! Performance Computing and Communications Program, FY 1992–93.
//!
//! The reproduced paper (Holcomb, *High Performance Computing and
//! Communications Program*, 1992) is a programmatic overview, so the
//! "core contribution" is the program structure: eight agencies, four
//! components (HPCS / ASTA / NREN / BRHR), a $654.8M → $802.9M budget
//! crosscut, and two consortia around the Intel Touchstone Delta. This
//! crate types all of it and carries the [`exhibits`] registry that maps
//! every table and figure of the deck to the module and command that
//! regenerates it.
//!
//! ```
//! use hpcc_core::{FundingTable, FiscalYear, Agency};
//!
//! let t = FundingTable::fy1992_93();
//! assert_eq!(t.total(FiscalYear::Fy1992).to_string(), "654.8");
//! assert!(t.share_pct(Agency::Darpa, FiscalYear::Fy1993) > 30.0);
//! ```

pub mod consortium;
pub mod exhibits;
pub mod funding;
pub mod program;
pub mod report;
pub mod responsibilities;
pub mod timeline;

pub use exhibits::{registry, Exhibit, ExhibitKind};
pub use funding::{FiscalYear, FundingTable, Money};
pub use program::{Agency, Component, APPROACH, AUTHORITY, GOALS};
pub use report::{fnum, Table};
