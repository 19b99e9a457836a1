# export.sh — sourced by the pair scripts: export_rev REV DIR writes REV's
# tree into DIR — any git revision by git archive, or "." for the working
# tree as it stands (tracked and untracked files, less those deleted) — so
# that a build sees one revision's files and the repository's own metadata
# is never written.
export_rev() {
	local rev=$1 dir=$2 root
	root=$(git rev-parse --show-toplevel)
	mkdir -p "$dir"
	if [ "$rev" = "." ]; then
		(cd "$root" && git ls-files -z --cached --others --exclude-standard |
			while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
			tar --null -T - -cf -) | tar -xf - -C "$dir"
	else
		git -C "$root" archive "$rev" | tar -xf - -C "$dir"
	fi
}
