//! The related-work capability matrix of the paper's Table I.
//!
//! Kept as data so the `table1_related` paper view can print the table
//! and tests can assert HADAS's claimed position (the only framework with
//! all four capabilities).

/// One row of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelatedWork {
    /// Published name.
    pub name: &'static str,
    /// Supports early-exiting.
    pub early_exiting: bool,
    /// Performs neural architecture search.
    pub nas: bool,
    /// Co-optimises DVFS settings.
    pub dvfs: bool,
    /// Compatible with existing state-of-the-art NAS supernets.
    pub compatibility: bool,
}

/// The comparison matrix exactly as printed in the paper.
pub const TABLE_I: [RelatedWork; 8] = [
    RelatedWork {
        name: "BranchyNet",
        early_exiting: true,
        nas: false,
        dvfs: false,
        compatibility: false,
    },
    RelatedWork {
        name: "CDLN",
        early_exiting: true,
        nas: false,
        dvfs: false,
        compatibility: false,
    },
    RelatedWork {
        name: "S2dnas",
        early_exiting: true,
        nas: true,
        dvfs: false,
        compatibility: false,
    },
    RelatedWork {
        name: "Dynamic-OFA",
        early_exiting: false,
        nas: true,
        dvfs: false,
        compatibility: true,
    },
    RelatedWork {
        name: "EExNAS",
        early_exiting: true,
        nas: true,
        dvfs: false,
        compatibility: false,
    },
    RelatedWork {
        name: "Edgebert",
        early_exiting: true,
        nas: false,
        dvfs: true,
        compatibility: false,
    },
    RelatedWork {
        name: "Predictive Exit",
        early_exiting: true,
        nas: false,
        dvfs: true,
        compatibility: false,
    },
    RelatedWork { name: "HADAS", early_exiting: true, nas: true, dvfs: true, compatibility: true },
];

impl RelatedWork {
    /// Number of supported capabilities.
    pub fn capability_count(&self) -> usize {
        usize::from(self.early_exiting)
            + usize::from(self.nas)
            + usize::from(self.dvfs)
            + usize::from(self.compatibility)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hadas_is_the_only_full_row() {
        let full: Vec<&str> =
            TABLE_I.iter().filter(|w| w.capability_count() == 4).map(|w| w.name).collect();
        assert_eq!(full, vec!["HADAS"]);
    }

    #[test]
    fn every_related_work_misses_dvfs_or_nas() {
        for w in TABLE_I.iter().filter(|w| w.name != "HADAS") {
            assert!(!w.nas || !w.dvfs, "{} should not co-optimise NAS and DVFS", w.name);
        }
    }
}
