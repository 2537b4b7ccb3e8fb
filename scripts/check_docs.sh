#!/usr/bin/env bash
# Documentation lint, run by the CI docs job and locally:
#   1. every relative markdown link in README.md and docs/*.md must
#      resolve to an existing file (anchors are stripped first);
#   2. every public header in src/*/ must carry a file-level Doxygen
#      `@file` comment.
set -u
cd "$(dirname "$0")/.."

status=0

check_links() {
    local md="$1"
    local dir
    dir=$(dirname "$md")
    # Inline markdown links: [text](target)
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        local path="${target%%#*}"
        [ -z "$path" ] && continue
        if [ ! -e "$dir/$path" ]; then
            echo "BROKEN LINK: $md -> $target"
            status=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
}

for md in README.md docs/*.md; do
    [ -e "$md" ] || continue
    check_links "$md"
done

for hh in src/*/*.hh; do
    if ! grep -q '@file' "$hh"; then
        echo "MISSING @file COMMENT: $hh"
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "docs check OK"
fi
exit "$status"
