//! Page contents of the data workloads: a little-endian `u64` counter
//! followed by filler that encodes the page's identity, so a read can tell a
//! torn, misplaced or corrupted page from a correct one.

use afs_core::{Capability, FileStore, PagePath};
use bytes::Bytes;

fn filler(file: usize, page: usize, i: usize) -> u8 {
    (file.wrapping_mul(131) ^ page.wrapping_mul(7) ^ i) as u8
}

/// A page of `len` bytes with counter 0.
pub fn initial(file: usize, page: usize, len: usize) -> Bytes {
    let mut data = vec![0u8; len];
    for (i, b) in data.iter_mut().enumerate().skip(8) {
        *b = filler(file, page, i);
    }
    Bytes::from(data)
}

pub fn counter(data: &[u8]) -> u64 {
    u64::from_le_bytes(data[..8].try_into().expect("page holds a counter"))
}

/// The same page with its counter incremented.
pub fn incremented(data: &Bytes) -> Bytes {
    let mut next = data.to_vec();
    next[..8].copy_from_slice(&(counter(data) + 1).to_le_bytes());
    Bytes::from(next)
}

/// Checks that `data` is page `page` of file `file`.
pub fn check(data: &[u8], file: usize, page: usize, len: usize) -> Result<(), String> {
    if data.len() != len {
        return Err(format!("page is {} bytes, expected {len}", data.len()));
    }
    if (8..len).any(|i| data[i] != filler(file, page, i)) {
        return Err("page filler does not match its file and page".to_string());
    }
    Ok(())
}

/// Creates `files` files of `pages` pages of `len` bytes over `store` — the
/// ones with index `i % of == part`, so client threads can share the work.
pub fn provision<S: FileStore>(
    store: &S,
    (files, pages, len): (usize, usize, usize),
    part: usize,
    of: usize,
) -> Vec<(usize, Capability)> {
    (part..files)
        .step_by(of)
        .map(|f| {
            let cap = store.create_file().expect("create file");
            let v = store.create_version(&cap).expect("create setup version");
            for p in 0..pages {
                store
                    .append_page(&v, &PagePath::root(), initial(f, p, len))
                    .expect("append page");
            }
            store.commit(&v).expect("commit setup version");
            (f, cap)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_carry_identity_and_a_counter() {
        let p = initial(3, 5, 512);
        assert_eq!(counter(&p), 0);
        let q = incremented(&incremented(&p));
        assert_eq!(counter(&q), 2);
        assert!(check(&q, 3, 5, 512).is_ok());
        assert!(check(&q, 3, 6, 512).is_err());
        assert!(check(&q[..100], 3, 5, 512).is_err());
    }
}
