//! Reads of a DEPT world, each paired with the script line it stands
//! for — shared by the served-world oracle and the follower's
//! read-only port test via `#[path = "dept_queries.rs"] mod dept_queries;`.

use troll::serve::Request;

/// Reads against world `world` once `|DEPT|("Toys")` exists, each with
/// the script line it stands for: one that succeeds and three that fail
/// (unknown attribute, malformed identity, unknown interface).
pub fn queries(world: &str) -> Vec<(Request, String)> {
    let attr = |id: &str, attr: &str| {
        (
            Request::QueryAttr {
                world: world.to_string(),
                id: id.to_string(),
                attr: attr.to_string(),
            },
            format!("show {id} {attr}"),
        )
    };
    vec![
        attr(r#"|DEPT|("Toys")"#, "employees"),
        attr(r#"|DEPT|("Toys")"#, "budget"),
        attr(r#"DEPT("Toys")"#, "employees"),
        (
            Request::QueryView {
                world: world.to_string(),
                interface: "SAL_EMPLOYEE".to_string(),
            },
            "view SAL_EMPLOYEE".to_string(),
        ),
    ]
}
