//! Partially specified broadside tests.

use fbt_fault::BroadsideTest;
use fbt_netlist::rng::Rng;
use fbt_netlist::Netlist;
use fbt_sim::{Bits, Trit};

/// A partially specified broadside test `<s1, v1, v2>` over three-valued
/// entries (the second-pattern state is implied and never stored).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCube {
    /// Scan-in state cube.
    pub s1: Vec<Trit>,
    /// First-pattern primary-input cube.
    pub v1: Vec<Trit>,
    /// Second-pattern primary-input cube.
    pub v2: Vec<Trit>,
}

impl TestCube {
    /// The fully unspecified cube for a circuit.
    pub fn unspecified(net: &Netlist) -> Self {
        TestCube {
            s1: vec![Trit::X; net.num_dffs()],
            v1: vec![Trit::X; net.num_inputs()],
            v2: vec![Trit::X; net.num_inputs()],
        }
    }

    /// Number of specified entries.
    pub fn specified(&self) -> usize {
        self.s1
            .iter()
            .chain(&self.v1)
            .chain(&self.v2)
            .filter(|t| t.is_specified())
            .count()
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        self.s1.len() + self.v1.len() + self.v2.len()
    }

    /// Whether the cube has no entries (degenerate circuit).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fill the unspecified entries with `value`.
    pub fn fill(&self, value: bool) -> BroadsideTest {
        let f = |v: &[Trit]| -> Bits { v.iter().map(|t| t.to_bool().unwrap_or(value)).collect() };
        BroadsideTest::new(f(&self.s1), f(&self.v1), f(&self.v2))
    }

    /// Fill the unspecified entries pseudo-randomly.
    pub fn fill_random(&self, rng: &mut Rng) -> BroadsideTest {
        let mut f = |v: &[Trit]| -> Bits {
            v.iter()
                .map(|t| t.to_bool().unwrap_or_else(|| rng.bit()))
                .collect()
        };
        let s1 = f(&self.s1);
        let v1 = f(&self.v1);
        let v2 = f(&self.v2);
        BroadsideTest::new(s1, v1, v2)
    }

    /// Whether `other` is compatible with `self` (no opposing specified
    /// entries).
    pub fn compatible(&self, other: &TestCube) -> bool {
        let ok = |a: &[Trit], b: &[Trit]| a.iter().zip(b).all(|(x, y)| x.compatible(*y));
        ok(&self.s1, &other.s1) && ok(&self.v1, &other.v1) && ok(&self.v2, &other.v2)
    }
}

/// The fully specified cube of a broadside test.
impl From<&BroadsideTest> for TestCube {
    fn from(t: &BroadsideTest) -> Self {
        let cube = |b: &Bits| -> Vec<Trit> { b.iter().map(Trit::from_bool).collect() };
        TestCube {
            s1: cube(&t.scan_in),
            v1: cube(&t.v1),
            v2: cube(&t.v2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_netlist::s27;

    #[test]
    fn fill_respects_specified_bits() {
        let net = s27();
        let mut c = TestCube::unspecified(&net);
        c.s1[1] = Trit::One;
        c.v1[0] = Trit::Zero;
        c.v2[3] = Trit::One;
        let t = c.fill(false);
        assert!(t.scan_in.get(1));
        assert!(!t.v1.get(0));
        assert!(t.v2.get(3));
        assert!(!t.v2.get(0)); // filled with 0
        assert_eq!(c.specified(), 3);
        assert_eq!(c.len(), 11);
    }

    #[test]
    fn random_fill_is_deterministic_per_seed() {
        let net = s27();
        let c = TestCube::unspecified(&net);
        let mut r1 = Rng::new(5);
        let mut r2 = Rng::new(5);
        assert_eq!(c.fill_random(&mut r1), c.fill_random(&mut r2));
    }

    #[test]
    fn compatibility() {
        let net = s27();
        let mut a = TestCube::unspecified(&net);
        let mut b = TestCube::unspecified(&net);
        a.v1[2] = Trit::One;
        b.v1[2] = Trit::One;
        assert!(a.compatible(&b));
        b.v1[2] = Trit::Zero;
        assert!(!a.compatible(&b));
        b.v1[2] = Trit::X;
        assert!(a.compatible(&b));
    }
}
