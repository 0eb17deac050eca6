//! Typed system identifiers.
//!
//! The benchmark used to pass systems around as `&'static str` display
//! names — in `Search::new`, grid points, cell failures, serving
//! tables — which made typos silent and cross-layer joins stringly.
//! [`SystemId`] replaces that: one `Copy` enum with a stable ordinal
//! (paper order), `Display` producing exactly the names the paper's
//! figures use, and `FromStr` accepting them back (checkpoint replay).
//!
//! Test doubles and downstream experiments can still exist outside the
//! paper's roster via [`SystemId::Custom`], which carries its own display
//! name and sorts after every known system.

/// Identity of an AutoML system (or baseline) in the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SystemId {
    /// TabPFN — the budget-free pre-trained transformer.
    TabPfn,
    /// AutoGluon with the paper's `best_quality` preset.
    AutoGluon,
    /// AutoGluon with the faster-inference refit preset (Fig. 6).
    AutoGluonRefit,
    /// Auto-sklearn 1 (vanilla, meta-learning warm start).
    AutoSklearn1,
    /// Auto-sklearn 2 (PoSH: portfolio + successive halving).
    AutoSklearn2,
    /// CAML — the constraint-aware AutoML system.
    Caml,
    /// TPOT — genetic-programming pipeline search.
    Tpot,
    /// FLAML — cost-frugal hyperparameter search.
    Flaml,
    /// The random-search baseline.
    RandomSearch,
    /// The grid-search baseline.
    GridSearch,
    /// A system outside the paper's roster (test doubles, downstream
    /// extensions). Sorts after every known system.
    Custom(&'static str),
}

impl SystemId {
    /// The seven benchmarked systems plus the refit preset and the two
    /// baselines, in stable (paper) order.
    pub const ALL: [SystemId; 10] = [
        SystemId::TabPfn,
        SystemId::AutoGluon,
        SystemId::AutoGluonRefit,
        SystemId::AutoSklearn1,
        SystemId::AutoSklearn2,
        SystemId::Caml,
        SystemId::Tpot,
        SystemId::Flaml,
        SystemId::RandomSearch,
        SystemId::GridSearch,
    ];

    /// The display name used in the paper's figures (and everywhere else).
    pub fn as_str(&self) -> &'static str {
        match self {
            SystemId::TabPfn => "TabPFN",
            SystemId::AutoGluon => "AutoGluon",
            SystemId::AutoGluonRefit => "AutoGluon(refit)",
            SystemId::AutoSklearn1 => "AutoSklearn1",
            SystemId::AutoSklearn2 => "AutoSklearn2",
            SystemId::Caml => "CAML",
            SystemId::Tpot => "TPOT",
            SystemId::Flaml => "FLAML",
            SystemId::RandomSearch => "RandomSearch",
            SystemId::GridSearch => "GridSearch",
            SystemId::Custom(name) => name,
        }
    }

    /// Stable ordinal: position in [`SystemId::ALL`] for known systems,
    /// `u8::MAX` for [`SystemId::Custom`].
    pub fn ordinal(&self) -> u8 {
        SystemId::ALL
            .iter()
            .position(|s| s == self)
            .map(|i| i as u8)
            .unwrap_or(u8::MAX)
    }

    /// [`fnv1a_p44`](green_automl_energy::hash::fnv1a_p44) of the display
    /// name — a stable key for deriving per-system seeds (trace ids) that
    /// survives enum reordering.
    pub fn stable_hash(&self) -> u64 {
        green_automl_energy::hash::fnv1a_p44(self.as_str().bytes())
    }

    /// Resolve a `'static` display name: a known variant when the name
    /// matches one, [`SystemId::Custom`] otherwise. This is how trait
    /// objects that only override `name()` acquire an id.
    pub fn from_name(name: &'static str) -> SystemId {
        name.parse().unwrap_or(SystemId::Custom(name))
    }
}

impl std::fmt::Display for SystemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A string did not name a known system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSystemIdError(
    /// The offending input.
    pub String,
);

impl std::fmt::Display for ParseSystemIdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown system name: {:?}", self.0)
    }
}

impl std::error::Error for ParseSystemIdError {}

impl std::str::FromStr for SystemId {
    type Err = ParseSystemIdError;

    fn from_str(s: &str) -> Result<SystemId, ParseSystemIdError> {
        SystemId::ALL
            .iter()
            .copied()
            .find(|id| id.as_str() == s)
            .ok_or_else(|| ParseSystemIdError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_fromstr_round_trip() {
        for id in SystemId::ALL {
            let parsed: SystemId = id.to_string().parse().expect("known name parses");
            assert_eq!(parsed, id);
        }
        assert!("NoSuchSystem".parse::<SystemId>().is_err());
        assert!("NoSuchSystem"
            .parse::<SystemId>()
            .unwrap_err()
            .to_string()
            .contains("NoSuchSystem"));
    }

    #[test]
    fn ordinals_are_stable_and_ordered() {
        for (i, id) in SystemId::ALL.iter().enumerate() {
            assert_eq!(id.ordinal() as usize, i);
        }
        assert_eq!(SystemId::Custom("X").ordinal(), u8::MAX);
        // Derived Ord follows declaration order; Custom sorts last.
        assert!(SystemId::TabPfn < SystemId::Flaml);
        assert!(SystemId::GridSearch < SystemId::Custom("AAA"));
    }

    #[test]
    fn from_name_resolves_known_names_and_wraps_unknown_ones() {
        assert_eq!(SystemId::from_name("FLAML"), SystemId::Flaml);
        assert_eq!(
            SystemId::from_name("AutoGluon(refit)"),
            SystemId::AutoGluonRefit
        );
        assert_eq!(
            SystemId::from_name("Explosive"),
            SystemId::Custom("Explosive")
        );
        assert_eq!(SystemId::Custom("Explosive").to_string(), "Explosive");
    }
}
