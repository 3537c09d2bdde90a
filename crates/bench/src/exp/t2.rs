//! R-T2 (Table 2): the attack matrix — each attack against the baseline
//! (expected: succeeds) and the improved system (expected: blocked).

use attacks::AttackMatrix;
use vtpm::{Guest, Platform};
use vtpm_ac::SecurePlatform;

use crate::Outcome;

/// Both matrices.
#[derive(Debug, Clone)]
pub struct T2Result {
    /// Against the stock system.
    pub baseline: AttackMatrix,
    /// Against the improved system.
    pub improved: AttackMatrix,
}

fn warm(guest: &mut Guest) {
    let mut c = guest.client(b"warm");
    c.startup_clear().expect("startup");
    c.extend(0, &[1; 20]).expect("extend");
    c.get_random(16).expect("random");
}

/// Run the full suite against both configurations.
pub fn run() -> T2Result {
    let base = Platform::baseline(b"t2-baseline").expect("platform");
    let mut victim = base.launch_guest("victim").expect("guest");
    let mut attacker = base.launch_guest("attacker").expect("guest");
    warm(&mut victim);
    warm(&mut attacker);
    let baseline = AttackMatrix::run("baseline", &base, &victim, &mut attacker);

    let sp = SecurePlatform::full(b"t2-improved").expect("platform");
    let mut victim = sp.launch_guest("victim").expect("guest");
    let mut attacker = sp.launch_guest("attacker").expect("guest");
    warm(&mut victim);
    warm(&mut attacker);
    let improved = AttackMatrix::run("improved", &sp.platform, &victim, &mut attacker);

    T2Result { baseline, improved }
}

/// Render the table.
pub fn render(result: &T2Result) -> String {
    let mut out = String::new();
    out.push_str("R-T2  Attack matrix: baseline vs improved access control\n");
    out.push_str(&format!(
        "{:<22} {:<12} {:<12}\n",
        "attack", "baseline", "improved"
    ));
    for (b, i) in result.baseline.outcomes.iter().zip(&result.improved.outcomes) {
        assert_eq!(b.name, i.name);
        out.push_str(&format!(
            "{:<22} {:<12} {:<12}  ({} | {})\n",
            b.name,
            if b.succeeded { "SUCCESS" } else { "blocked" },
            if i.succeeded { "SUCCESS" } else { "blocked" },
            b.detail,
            i.detail,
        ));
    }
    out.push_str(&format!(
        "totals: baseline {}/{} succeeded, improved {}/{} succeeded\n",
        result.baseline.successes(),
        result.baseline.outcomes.len(),
        result.improved.successes(),
        result.improved.outcomes.len(),
    ));
    out
}

/// The `repro` entry: this experiment at CI size (`quick`) or full size.
pub fn repro(_quick: bool) -> Outcome {
    Outcome::table(render(&run()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_claim_reproduced() {
        let r = run();
        assert_eq!(r.baseline.successes(), r.baseline.outcomes.len(), "{:#?}", r.baseline);
        assert_eq!(r.improved.successes(), 0, "{:#?}", r.improved);
        let table = render(&r);
        assert!(table.contains("dump-state"));
        assert!(table.contains("SUCCESS"));
        assert!(table.contains("blocked"));
    }
}
