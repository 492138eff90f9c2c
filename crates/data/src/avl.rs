//! The one persistent ordered tree of `troll-data`.
//!
//! A path-copying AVL tree whose nodes are shared via [`Arc`]: cloning
//! a root is O(1) and producing "old tree ± one element" is O(log n) —
//! only the spine from the root to the touched position is
//! reallocated, everything else is shared with the previous version.
//! Every node also carries its subtree size, so the same tree serves
//! ordered access (by a comparison) and positional access (by index).
//!
//! [`StateMap`](crate::StateMap) and the collection payloads
//! [`PSet`](crate::PSet), [`PList`](crate::PList) and
//! [`PMap`](crate::PMap) are thin typed wrappers over these functions.

use std::cmp::Ordering;
use std::sync::Arc;

pub(crate) type Link<T> = Option<Arc<Node<T>>>;

#[derive(Debug)]
pub(crate) struct Node<T> {
    pub(crate) elem: T,
    pub(crate) left: Link<T>,
    pub(crate) right: Link<T>,
    height: u8,
    size: usize,
}

fn height<T>(l: &Link<T>) -> u8 {
    l.as_ref().map_or(0, |n| n.height)
}

pub(crate) fn size<T>(l: &Link<T>) -> usize {
    l.as_ref().map_or(0, |n| n.size)
}

fn mk<T>(elem: T, left: Link<T>, right: Link<T>) -> Arc<Node<T>> {
    let height = 1 + height(&left).max(height(&right));
    let size = 1 + size(&left) + size(&right);
    Arc::new(Node {
        elem,
        left,
        right,
        height,
        size,
    })
}

/// Rebuilds a node and restores the AVL invariant (|balance| ≤ 1) with
/// at most two rotations. `elem`'s subtrees may differ in height by at
/// most 2, which is all that path-copy insert/remove can produce.
fn balance<T: Clone>(elem: T, left: Link<T>, right: Link<T>) -> Arc<Node<T>> {
    let (hl, hr) = (height(&left), height(&right));
    if hl > hr + 1 {
        let l = left.as_ref().expect("left-heavy implies left node");
        if height(&l.left) >= height(&l.right) {
            // single right rotation
            let new_right = mk(elem, l.right.clone(), right);
            mk(l.elem.clone(), l.left.clone(), Some(new_right))
        } else {
            // left-right double rotation
            let lr = l.right.as_ref().expect("double rotation pivot");
            let new_left = mk(l.elem.clone(), l.left.clone(), lr.left.clone());
            let new_right = mk(elem, lr.right.clone(), right);
            mk(lr.elem.clone(), Some(new_left), Some(new_right))
        }
    } else if hr > hl + 1 {
        let r = right.as_ref().expect("right-heavy implies right node");
        if height(&r.right) >= height(&r.left) {
            // single left rotation
            let new_left = mk(elem, left, r.left.clone());
            mk(r.elem.clone(), Some(new_left), r.right.clone())
        } else {
            // right-left double rotation
            let rl = r.left.as_ref().expect("double rotation pivot");
            let new_left = mk(elem, left, rl.left.clone());
            let new_right = mk(r.elem.clone(), rl.right.clone(), r.right.clone());
            mk(rl.elem.clone(), Some(new_left), Some(new_right))
        }
    } else {
        mk(elem, left, right)
    }
}

/// Removes the minimum element of a non-empty subtree, returning it and
/// the remaining tree.
fn take_min<T: Clone>(node: &Arc<Node<T>>) -> (T, Link<T>) {
    match &node.left {
        None => (node.elem.clone(), node.right.clone()),
        Some(l) => {
            let (min, rest) = take_min(l);
            (
                min,
                Some(balance(node.elem.clone(), rest, node.right.clone())),
            )
        }
    }
}

/// `node` without its own element: its children joined under the
/// in-order successor.
fn unlink<T: Clone>(node: &Node<T>) -> Link<T> {
    match (&node.left, &node.right) {
        (None, r) => r.clone(),
        (l, None) => l.clone(),
        (l, Some(r)) => {
            let (succ, r_rest) = take_min(r);
            Some(balance(succ, l.clone(), r_rest))
        }
    }
}

/// Ordered insert by `cmp`. An equal element already present is
/// replaced by `merge(present, elem)`; `None` leaves the tree unchanged
/// and returns `None` (the caller keeps the original root, preserving
/// sharing). Otherwise returns the new root and the displaced element,
/// if any.
pub(crate) fn ins_ord<T: Clone>(
    link: &Link<T>,
    elem: T,
    cmp: &impl Fn(&T, &T) -> Ordering,
    merge: impl FnOnce(&T, T) -> Option<T>,
) -> Option<(Arc<Node<T>>, Option<T>)> {
    match link {
        None => Some((mk(elem, None, None), None)),
        Some(n) => match cmp(&elem, &n.elem) {
            Ordering::Equal => {
                let kept = merge(&n.elem, elem)?;
                Some((
                    mk(kept, n.left.clone(), n.right.clone()),
                    Some(n.elem.clone()),
                ))
            }
            Ordering::Less => ins_ord(&n.left, elem, cmp, merge)
                .map(|(l, old)| (balance(n.elem.clone(), Some(l), n.right.clone()), old)),
            Ordering::Greater => ins_ord(&n.right, elem, cmp, merge)
                .map(|(r, old)| (balance(n.elem.clone(), n.left.clone(), Some(r)), old)),
        },
    }
}

/// Ordered remove of the element `key` compares equal to. Returns
/// `None` when there is none (the tree is unchanged), otherwise the
/// new root and the removed element.
pub(crate) fn rem_ord<T: Clone, K: ?Sized>(
    link: &Link<T>,
    key: &K,
    cmp: &impl Fn(&K, &T) -> Ordering,
) -> Option<(Link<T>, T)> {
    let n = link.as_ref()?;
    match cmp(key, &n.elem) {
        Ordering::Equal => Some((unlink(n), n.elem.clone())),
        Ordering::Less => rem_ord(&n.left, key, cmp)
            .map(|(l, removed)| (Some(balance(n.elem.clone(), l, n.right.clone())), removed)),
        Ordering::Greater => rem_ord(&n.right, key, cmp)
            .map(|(r, removed)| (Some(balance(n.elem.clone(), n.left.clone(), r)), removed)),
    }
}

/// The element `key` compares equal to, if any.
pub(crate) fn get_ord<'a, T, K: ?Sized>(
    link: &'a Link<T>,
    key: &K,
    cmp: &impl Fn(&K, &T) -> Ordering,
) -> Option<&'a T> {
    let mut cur = link;
    while let Some(n) = cur {
        match cmp(key, &n.elem) {
            Ordering::Equal => return Some(&n.elem),
            Ordering::Less => cur = &n.left,
            Ordering::Greater => cur = &n.right,
        }
    }
    None
}

/// Positional insert (list semantics); `idx ≤ size`.
pub(crate) fn ins_at<T: Clone>(link: &Link<T>, idx: usize, elem: T) -> Arc<Node<T>> {
    match link {
        None => mk(elem, None, None),
        Some(n) => {
            let lsz = size(&n.left);
            if idx <= lsz {
                balance(
                    n.elem.clone(),
                    Some(ins_at(&n.left, idx, elem)),
                    n.right.clone(),
                )
            } else {
                balance(
                    n.elem.clone(),
                    n.left.clone(),
                    Some(ins_at(&n.right, idx - lsz - 1, elem)),
                )
            }
        }
    }
}

/// Positional remove (list semantics); `idx < size`.
pub(crate) fn rem_at<T: Clone>(node: &Arc<Node<T>>, idx: usize) -> (Link<T>, T) {
    let lsz = size(&node.left);
    match idx.cmp(&lsz) {
        Ordering::Equal => (unlink(node), node.elem.clone()),
        Ordering::Less => {
            let l = node.left.as_ref().expect("idx < lsz implies left node");
            let (l_rest, removed) = rem_at(l, idx);
            (
                Some(balance(node.elem.clone(), l_rest, node.right.clone())),
                removed,
            )
        }
        Ordering::Greater => {
            let r = node.right.as_ref().expect("idx > lsz implies right node");
            let (r_rest, removed) = rem_at(r, idx - lsz - 1);
            (
                Some(balance(node.elem.clone(), node.left.clone(), r_rest)),
                removed,
            )
        }
    }
}

pub(crate) fn get_at<T>(link: &Link<T>, idx: usize) -> Option<&T> {
    let mut cur = link;
    let mut idx = idx;
    while let Some(n) = cur {
        let lsz = size(&n.left);
        match idx.cmp(&lsz) {
            Ordering::Equal => return Some(&n.elem),
            Ordering::Less => cur = &n.left,
            Ordering::Greater => {
                idx -= lsz + 1;
                cur = &n.right;
            }
        }
    }
    None
}

/// Builds a balanced tree from a slice of already-ordered elements in
/// O(n) without rotations.
pub(crate) fn build<T: Clone>(elems: &[T]) -> Link<T> {
    if elems.is_empty() {
        return None;
    }
    let mid = elems.len() / 2;
    Some(mk(
        elems[mid].clone(),
        build(&elems[..mid]),
        build(&elems[mid + 1..]),
    ))
}

/// In-order borrowing iterator over a tree.
pub struct TreeIter<'a, T> {
    stack: Vec<&'a Node<T>>,
}

impl<'a, T> TreeIter<'a, T> {
    pub(crate) fn new(root: &'a Link<T>) -> Self {
        let mut it = TreeIter { stack: Vec::new() };
        it.push_left(root);
        it
    }

    fn push_left(&mut self, mut link: &'a Link<T>) {
        while let Some(n) = link {
            self.stack.push(n);
            link = &n.left;
        }
    }
}

impl<'a, T> Iterator for TreeIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let n = self.stack.pop()?;
        self.push_left(&n.right);
        Some(&n.elem)
    }
}

/// Whether two roots are the same node (O(1) certain-equal).
pub(crate) fn link_ptr_eq<T>(a: &Link<T>, b: &Link<T>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => Arc::ptr_eq(x, y),
        _ => false,
    }
}

/// Asserts the AVL invariant and the stored `height`/`size` of every
/// node; returns the tree's height.
#[cfg(test)]
pub(crate) fn check_avl<T>(link: &Link<T>) -> u8 {
    match link {
        None => 0,
        Some(n) => {
            let hl = check_avl(&n.left);
            let hr = check_avl(&n.right);
            assert!(hl.abs_diff(hr) <= 1, "AVL invariant violated");
            assert_eq!(n.height, 1 + hl.max(hr));
            assert_eq!(n.size, 1 + size(&n.left) + size(&n.right));
            1 + hl.max(hr)
        }
    }
}
