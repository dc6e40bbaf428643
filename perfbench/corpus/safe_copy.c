/* A strcpy whose contract carries exactly the bound the libc model
   needs: the destination allocation strictly exceeds the source
   length. */

void copy_name(char *dst, char *src)
    requires (is_nullt(src) && alloc(dst) > strlen(src))
    modifies (dst), (is_nullt(dst)), (strlen(dst))
    ensures (is_nullt(dst))
{
    strcpy(dst, src);
}
